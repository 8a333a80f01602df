# Re-runs one byzbench scenario at the golden settings (--scale 0.05
# --jobs 1) and byte-compares its BENCH manifest with the committed file.
#
#   cmake -DBYZBENCH=<byzbench> -DSCENARIO=e01 -DGOLDEN_DIR=<bench/golden>
#         -DOUT_DIR=<scratch dir> -P tools/check_golden.cmake
#
# README.md ("Golden manifests") gives the command that regenerates the
# golden files after a change that moves an output.
foreach(var BYZBENCH SCENARIO GOLDEN_DIR OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_golden.cmake: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${OUT_DIR}")
execute_process(
  COMMAND "${BYZBENCH}" --filter "${SCENARIO}" --scale 0.05 --jobs 1
          --json-out "${OUT_DIR}"
  OUTPUT_VARIABLE run_out
  ERROR_VARIABLE run_err
  RESULT_VARIABLE run_rc)
if(NOT run_rc EQUAL 0)
  # The run summary's FAILED: row says why (e.g. the exception a scenario
  # threw); stderr carries anything logged before it.
  string(REGEX MATCHALL "[^\n]*FAILED:[^\n]*" failed_rows "${run_out}")
  string(REPLACE ";" "\n" failed_rows "${failed_rows}")
  message(FATAL_ERROR "byzbench --filter ${SCENARIO} exited ${run_rc}\n"
                      "${failed_rows}\n${run_err}")
endif()

set(actual "${OUT_DIR}/BENCH_${SCENARIO}.json")
set(golden "${GOLDEN_DIR}/BENCH_${SCENARIO}.json")
execute_process(
  COMMAND "${CMAKE_COMMAND}" -E compare_files "${actual}" "${golden}"
  RESULT_VARIABLE cmp_rc)
if(NOT cmp_rc EQUAL 0)
  message(FATAL_ERROR
          "${actual} differs from ${golden}: an output moved. If the change "
          "is intended, regenerate the golden files (README.md) and commit "
          "the diff.")
endif()
