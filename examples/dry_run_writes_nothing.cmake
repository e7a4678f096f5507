# --dry-run prints the plan and neither runs nor writes anything: a spec
# campaign's existing --out file keeps every byte (and gains no .ckpt), and
# --emit-repro writes no trace.
#
# Usage:
#   cmake -DSWEEP=<run_sweep> -DSPEC=<campaign.json> -DWORK=<dir>
#         -P dry_run_writes_nothing.cmake

foreach(var SWEEP SPEC WORK)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "missing -D${var}")
  endif()
endforeach()

function(dry_run)
  execute_process(COMMAND ${SWEEP} ${ARGN} --dry-run
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "run_sweep ${ARGN} --dry-run exited '${rc}'\n${out}\n${err}")
  endif()
endfunction()

set(data ${WORK}/dry_run_kept.jsonl)
set(trace ${WORK}/dry_run_repro.json)
file(REMOVE ${data}.ckpt ${trace})
file(WRITE ${data} "an earlier campaign's records\n")

dry_run(--spec ${SPEC} --out ${data})
file(READ ${data} kept)
if(NOT kept STREQUAL "an earlier campaign's records\n")
  message(FATAL_ERROR "--dry-run rewrote ${data}: '${kept}'")
endif()
if(EXISTS ${data}.ckpt)
  message(FATAL_ERROR "--dry-run wrote a checkpoint ${data}.ckpt")
endif()

dry_run(--scenario flow-liar --duration-ms 10 --workers 1
        --emit-repro ${trace})
if(EXISTS ${trace})
  message(FATAL_ERROR "--dry-run --emit-repro wrote ${trace}")
endif()
