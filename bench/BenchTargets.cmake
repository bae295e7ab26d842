# Bench binaries are declared from the top-level CMakeLists (via include)
# rather than add_subdirectory so that ${CMAKE_BINARY_DIR}/bench contains
# ONLY the executables: `for b in build/bench/*; do $b; done` then runs the
# whole suite with no CMake bookkeeping files in the way.

set(PACER_BENCH_BINARIES
  table1_effective_rates
  table2_thread_race_counts
  table3_operation_counts
  fig3_dynamic_detection
  fig4_distinct_detection
  fig5_per_race_detection
  fig6_literace_eclipse
  fig7_overhead_breakdown
  fig8_slowdown_full_range
  fig9_slowdown_zoom
  fig10_space_over_time
  ablation_design_choices
  ext_accordion_clocks
  micro_sharded
  micro_trace_io
)

foreach(bin ${PACER_BENCH_BINARIES})
  add_executable(${bin} bench/${bin}.cpp)
  target_link_libraries(${bin} PRIVATE pacer_harness)
  set_target_properties(${bin} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endforeach()

add_executable(micro_ops bench/micro_ops.cpp)
target_link_libraries(micro_ops PRIVATE pacer_harness benchmark::benchmark)
set_target_properties(micro_ops PROPERTIES
  RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
