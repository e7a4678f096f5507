# For each barrier k, crashes the spec after it (exit 9, a torn record);
# `--resume --crash-after-batches 2` must then stop after exactly k+2
# durable barriers, the sidecar's records on whole lines, and `--resume
# --monitor` must finish with the uninterrupted JSONL bytes and report.
# With -DRUNS (a static spec of one run per barrier), every progress entry
# of the first resume must count all RUNS runs, the first entry k done.
#
# Usage:
#   cmake -DSWEEP=<run_sweep> -DSPEC=<campaign.json> -DWORK=<dir>
#         -DTAG=<prefix> -DBARRIERS=<barriers of an uninterrupted run>
#         [-DRUNS=<runs>] -P resume_every_cut.cmake

foreach(var SWEEP SPEC WORK TAG BARRIERS)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "missing -D${var}")
  endif()
endforeach()

# Runs the spec into `out`, expects exit `expect_rc`, and sets `report` to
# stderr from the per-cell table on, which holds no wall times, and
# `progress` to the progress line's entries ("3/8 done", ...).
function(sweep expect_rc out)
  execute_process(COMMAND ${SWEEP} --spec ${SPEC} --out ${out} ${ARGN}
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL ${expect_rc})
    message(FATAL_ERROR "run_sweep ${ARGN} exited '${rc}' "
                        "(wanted ${expect_rc})\n${err}")
  endif()
  string(REGEX MATCH "== per-cell manifestation rates.*" report "${err}")
  set(report "${report}" PARENT_SCOPE)
  string(REGEX MATCHALL "[0-9]+/[0-9]+ done" progress "${err}")
  set(progress "${progress}" PARENT_SCOPE)
endfunction()

set(reference ${WORK}/${TAG}_cut_reference.jsonl)
set(cut ${WORK}/${TAG}_cut.jsonl)
sweep(0 ${reference} --monitor)
set(expected "${report}")

foreach(k RANGE 1 ${BARRIERS})
  sweep(9 ${cut} --crash-after-batches ${k})
  math(EXPR seam "${k} + 2")
  if(seam GREATER BARRIERS)
    sweep(0 ${cut} --resume --crash-after-batches 2)
  else()
    sweep(9 ${cut} --resume --crash-after-batches 2)
    file(READ ${cut}.ckpt ckpt)
    file(READ ${cut} data)
    string(REGEX MATCHALL "\n" lines "${data}")
    list(LENGTH lines lines)
    if(NOT ckpt MATCHES "\"rounds\":${seam},\"records\":${lines},")
      message(FATAL_ERROR "crashed at ${k}, resumed with "
                          "--crash-after-batches 2: wanted ${seam} barriers "
                          "over the ${lines} whole lines of ${cut}, got\n"
                          "${ckpt}")
    endif()
  endif()
  set(stray ${progress})
  list(FILTER stray EXCLUDE REGEX "/${RUNS} done$")
  if(DEFINED RUNS AND k LESS RUNS AND
     (stray OR NOT progress MATCHES "^${k}/${RUNS} done"))
    message(FATAL_ERROR "resumed after ${k} of ${RUNS} runs, the progress "
                        "line read\n${progress}")
  endif()
  sweep(0 ${cut} --resume --monitor)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${reference}
                          ${cut} RESULT_VARIABLE differ)
  if(differ OR NOT report STREQUAL expected)
    message(FATAL_ERROR "crashed at ${k} and resumed: ${cut} differs from "
                        "${reference}, or its report reads\n${report}\n"
                        "not\n${expected}")
  endif()
endforeach()

message(STATUS "resume at every cut ok: ${TAG}")
