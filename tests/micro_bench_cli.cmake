# Checks the micro_bench command line that the CI perf gate relies on:
# --min-speedup rejects any value that is not a finite ratio > 0 with
# exit 2 (a NaN ratio would pass every row), and --benchmark_list_tests
# only lists, timing nothing and writing no BENCH_micro.json.
# Run as: cmake -DMICRO_BENCH=<binary> -DWORK_DIR=<empty dir> -P micro_bench_cli.cmake
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
foreach(ratio nan inf 1.3x 0)
  execute_process(COMMAND "${MICRO_BENCH}" --min-speedup ${ratio}
                          --benchmark_filter=NONE
                  WORKING_DIRECTORY "${WORK_DIR}" TIMEOUT 120
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 2 OR NOT err MATCHES "wants a positive ratio")
    message(FATAL_ERROR "--min-speedup ${ratio}: exit ${rc}, want 2 and "
                        "the positive-ratio message:\n${err}")
  endif()
endforeach()
execute_process(COMMAND "${MICRO_BENCH}" --benchmark_list_tests
                WORKING_DIRECTORY "${WORK_DIR}" TIMEOUT 120
                RESULT_VARIABLE rc OUTPUT_VARIABLE listed ERROR_QUIET)
if(NOT rc EQUAL 0 OR NOT listed MATCHES "BM_IntGemm8/256")
  message(FATAL_ERROR "--benchmark_list_tests: exit ${rc}, want 0 and a "
                      "list naming BM_IntGemm8/256:\n${listed}")
endif()
if(EXISTS "${WORK_DIR}/BENCH_micro.json")
  message(FATAL_ERROR "--benchmark_list_tests timed the report and wrote "
                      "${WORK_DIR}/BENCH_micro.json")
endif()
