# Runs bottleneck_attribution (the analysis acceptance gates: bucket
# soundness, jobs-1-vs-4 byte identity, BERT-L local-vs-falcon run diff)
# and then bench_json_validate over the BENCH_analysis.json it wrote.
# Invoked as the bench_analysis ctest with -DCAPTURE_BIN / -DVALIDATE_BIN
# / -DOUT_JSON.
foreach(var CAPTURE_BIN VALIDATE_BIN OUT_JSON)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "run_analysis_validate.cmake: ${var} not set")
  endif()
endforeach()

file(REMOVE "${OUT_JSON}")

execute_process(
  COMMAND "${CAPTURE_BIN}" "${OUT_JSON}"
  RESULT_VARIABLE capture_rc
  OUTPUT_VARIABLE capture_out
  ERROR_VARIABLE capture_err)
if(NOT capture_rc EQUAL 0)
  message(FATAL_ERROR
          "bottleneck_attribution exited with ${capture_rc}\n${capture_out}\n${capture_err}")
endif()

if(NOT EXISTS "${OUT_JSON}")
  message(FATAL_ERROR "bottleneck_attribution did not produce ${OUT_JSON}")
endif()

execute_process(
  COMMAND "${VALIDATE_BIN}" "${OUT_JSON}"
  RESULT_VARIABLE validate_rc
  OUTPUT_VARIABLE validate_out
  ERROR_VARIABLE validate_err)
if(NOT validate_rc EQUAL 0)
  message(FATAL_ERROR
          "analysis validation failed (${validate_rc})\n${validate_out}\n${validate_err}")
endif()
