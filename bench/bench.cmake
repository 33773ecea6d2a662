# Benchmark harness: one binary per table/figure of the paper's
# evaluation, plus google-benchmark micro-benchmarks of the substrates.

set(TUNIO_BENCH_LIBS
  tunio_core tunio_service tunio_tuner tunio_replay tunio_rl tunio_nn
  tunio_workloads tunio_interp tunio_discovery tunio_analysis tunio_minic
  tunio_config tunio_trace tunio_hdf5lite tunio_mpiio tunio_mpisim tunio_pfs
  tunio_obs tunio_common)

# Stamp reports with the source revision so a stray BENCH_*.json can be
# traced back to the tree that produced it. "unknown" outside a git
# checkout (tarball builds).
execute_process(
  COMMAND git rev-parse --short=12 HEAD
  WORKING_DIRECTORY ${CMAKE_SOURCE_DIR}
  OUTPUT_VARIABLE TUNIO_GIT_SHA
  OUTPUT_STRIP_TRAILING_WHITESPACE
  ERROR_QUIET)
if(NOT TUNIO_GIT_SHA)
  set(TUNIO_GIT_SHA "unknown")
endif()

add_library(tunio_bench_common STATIC ${CMAKE_SOURCE_DIR}/bench/common.cpp)
target_link_libraries(tunio_bench_common PUBLIC ${TUNIO_BENCH_LIBS} tunio_tuners
  tunio_oracle)
target_include_directories(tunio_bench_common PUBLIC ${CMAKE_SOURCE_DIR}/bench)
target_compile_definitions(tunio_bench_common PRIVATE
  TUNIO_GIT_SHA="${TUNIO_GIT_SHA}")
set_target_properties(tunio_bench_common PROPERTIES
  ARCHIVE_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/lib)

function(tunio_add_bench name)
  add_executable(${name} ${CMAKE_SOURCE_DIR}/bench/${name}.cpp)
  target_link_libraries(${name} PRIVATE tunio_bench_common)
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

tunio_add_bench(fig01_search_space)
tunio_add_bench(fig02_tuning_curves)
tunio_add_bench(fig08a_io_discovery)
tunio_add_bench(fig08b_loop_reduction)
tunio_add_bench(fig08c_kernel_similarity)
tunio_add_bench(fig09_impact_first)
tunio_add_bench(fig10a_early_stop_bw)
tunio_add_bench(fig10b_early_stop_roti)
tunio_add_bench(fig11a_pipeline_bw)
tunio_add_bench(fig11b_pipeline_roti)
tunio_add_bench(fig12_viability)
tunio_add_bench(ablation_components)
tunio_add_bench(service_throughput)
tunio_add_bench(eval_fast_path)
tunio_add_bench(tuner_tournament)
tunio_add_bench(static_analysis)

# Micro-benchmarks (google-benchmark) for the substrates themselves. Uses
# a custom main (not benchmark_main) so `--json` produces the same
# BENCH_*.json reports as the figure benches.
add_executable(micro_substrates ${CMAKE_SOURCE_DIR}/bench/micro_substrates.cpp)
target_link_libraries(micro_substrates PRIVATE tunio_bench_common
  benchmark::benchmark)
set_target_properties(micro_substrates PROPERTIES
  RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
