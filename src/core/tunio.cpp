#include "core/tunio.hpp"

namespace tunio::core {

TunIO::TunIO(const cfg::ConfigSpace& space, TunioOptions options)
    : space_(space),
      options_(options),
      smart_config_(space, options.smart_config),
      early_stopping_(options.early_stopping) {}

discovery::KernelResult TunIO::discover_io(
    const std::string& source_code) const {
  return discovery::discover_io(source_code, options_.discovery);
}

discovery::KernelResult TunIO::discover_io(
    const std::string& source_code,
    const discovery::DiscoveryOptions& options) const {
  return discovery::discover_io(source_code, options);
}

analysis::LintReport TunIO::lint_source(
    const std::string& source_code) const {
  analysis::LintOptions lint_options;
  lint_options.io_prefixes = options_.discovery.io_prefixes;
  return analysis::lint_source(source_code, lint_options);
}

void TunIO::train_offline(
    const std::vector<tuner::Objective*>& sweep_kernels) {
  smart_config_.train_offline(sweep_kernels);
  early_stopping_.train_offline();
}

}  // namespace tunio::core
