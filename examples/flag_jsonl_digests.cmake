# Pins the JSONL of run_sweep's flag campaigns — static, coverage, bisect,
# and a monitored snapshot-forked FC grid — to SHA-256 digests recorded
# before the flags were lowered into a campaign file. The "events" fields
# are stripped first, as campaign_bench does for its pinned digests, so a
# change that only moves work between kernel events keeps them. A flag
# campaign also writes no checkpoint sidecar.
#
# Usage:
#   cmake -DSWEEP=<run_sweep> -DWORK=<dir> -P flag_jsonl_digests.cmake

foreach(var SWEEP WORK)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "missing -D${var}")
  endif()
endforeach()

function(expect_digest tag digest)
  set(out ${WORK}/flag_${tag}.jsonl)
  file(REMOVE ${out} ${out}.ckpt)
  execute_process(COMMAND ${SWEEP} ${ARGN} --workers 2 --out ${out}
    RESULT_VARIABLE rc OUTPUT_VARIABLE stdout ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "run_sweep ${ARGN} exited '${rc}'\n${err}")
  endif()
  file(READ ${out} text)
  string(REGEX REPLACE ",\"events\":[0-9]+" "" text "${text}")
  string(SHA256 got "${text}")
  if(NOT got STREQUAL digest)
    message(FATAL_ERROR "${tag}: JSONL digest ${got}, pinned ${digest}\n"
                        "(run_sweep ${ARGN})")
  endif()
  if(EXISTS ${out}.ckpt)
    message(FATAL_ERROR "${tag}: a flag campaign wrote ${out}.ckpt")
  endif()
endfunction()

expect_digest(static
  e311f40e21fbd217639740a54083afcf78dbad7ffb318c3940a1856725d18c5f
  --faults gap-go,seu-00FF --replicates 1 --duration-ms 2)
expect_digest(coverage
  9ae30a6f348f328d7065885042cd9b6040ed0582ea7be46daa89c4b407f0fbb0
  --strategy coverage --faults gap-go --replicates 1 --duration-ms 2)
expect_digest(bisect
  303a0f741555411bbf2780cc18edb8fcf9a1c59475b7b4338d7a391337433ab1
  --strategy bisect --faults gap-go --duration-ms 2 --tolerance 96)
expect_digest(fc_monitored
  9370e4f1da3126a6de14faf5324beb9d3979716096b97ac2818c7f5c77d049f0
  --medium fc --faults fill-flip,rrdy-drop --replicates 2 --duration-ms 5
  --snapshots on --monitor)
