# --monitor and --bench-out compose with a campaign file: the monitored run
# prints the final monitor table, writes bench records bench_json_check
# accepts, and its JSONL is byte-identical to the plain --spec --out run.
#
# Usage:
#   cmake -DSWEEP=<run_sweep> -DCHECK=<bench_json_check> -DSPEC=<spec.json>
#         -DWORK=<dir> -P spec_composition.cmake

foreach(var SWEEP CHECK SPEC WORK)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "missing -D${var}")
  endif()
endforeach()

set(plain ${WORK}/composed_plain.jsonl)
set(monitored ${WORK}/composed_monitored.jsonl)
set(bench ${WORK}/composed_bench.json)
file(REMOVE ${plain} ${plain}.ckpt ${monitored} ${monitored}.ckpt ${bench})

execute_process(COMMAND ${SWEEP} --spec ${SPEC} --out ${plain}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "plain --spec run exited '${rc}'\n${err}")
endif()

execute_process(
  COMMAND ${SWEEP} --spec ${SPEC} --monitor --bench-out ${bench}
          --out ${monitored}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "monitored --spec run exited '${rc}'\n${err}")
endif()
if(NOT err MATCHES "monitor \\(final\\)")
  message(FATAL_ERROR "no final monitor table on stderr:\n${err}")
endif()

execute_process(COMMAND ${CHECK} ${bench}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bench_json_check rejected ${bench}\n${out}\n${err}")
endif()

execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${plain} ${monitored}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "monitored JSONL ${monitored} differs from ${plain}")
endif()
