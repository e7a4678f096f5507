# A resume refuses durable records and round sidecars that its checkpoint
# cannot vouch for, instead of trusting their numbers. Crashes the adaptive
# spec after its first durable round (as shard_roundtrip.cmake does), then
# tampers with a copy of the files five ways and expects each --resume to
# exit 1 with an error naming the file:
#   - the first record's round set to 2^64-1 (the sidecar's byte count
#     raised by the 19 added characters): refused as unparseable;
#   - the first record's round set to 1, not below the 1 durable round;
#   - the sidecar claiming 2 rounds and the first record in round 1, so
#     the next record's round 0 steps back;
#   - the sidecar claiming more rounds than the spec's max_rounds (4);
#   - the sidecar claiming 2^64-1 durable bytes.
#
# Usage:
#   cmake -DSWEEP=<run_sweep> -DSPEC=<mini_bisect.json> -DWORK=<dir>
#         -P resume_tampered_round.cmake

foreach(var SWEEP SPEC WORK)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "missing -D${var}")
  endif()
endforeach()

set(pristine ${WORK}/tampered_pristine.jsonl)
set(data ${WORK}/tampered_round.jsonl)
file(REMOVE ${pristine} ${pristine}.ckpt ${data} ${data}.ckpt)

execute_process(COMMAND ${SWEEP} --spec ${SPEC} --out ${pristine}
                        --crash-after-batches 1
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 9)
  message(FATAL_ERROR "crash run exited '${rc}' (wanted 9)\n${err}")
endif()
file(READ ${pristine} records)
file(READ ${pristine}.ckpt sidecar)
string(REGEX MATCH "\"bytes\":([0-9]+)" unused "${sidecar}")
set(durable ${CMAKE_MATCH_1})

# Resumes from `data_text` and `ckpt_text` and expects exit 1 with
# `expect` on stderr.
function(expect_refused data_text ckpt_text expect)
  file(WRITE ${data} "${data_text}")
  file(WRITE ${data}.ckpt "${ckpt_text}")
  execute_process(COMMAND ${SWEEP} --spec ${SPEC} --out ${data} --resume
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 1)
    message(FATAL_ERROR "resume exited '${rc}' (wanted 1) for\n"
                        "${ckpt_text}\n${err}")
  endif()
  if(NOT err MATCHES "${expect}")
    message(FATAL_ERROR "resume stderr does not match '${expect}' for\n"
                        "${ckpt_text}\n${err}")
  endif()
endfunction()

# Rewrites the first record's "round":0 to `round` and the sidecar's
# per-target round count to `rounds`, keeping the byte count true, then
# expects the resume to be refused with `expect`.
function(expect_round_refused round rounds expect)
  string(FIND "${records}" "\"round\":0," at)
  if(at LESS 0)
    message(FATAL_ERROR "no round-0 record in ${pristine}")
  endif()
  string(SUBSTRING "${records}" 0 ${at} head)
  math(EXPR rest "${at} + 10")
  string(SUBSTRING "${records}" ${rest} -1 tail)
  string(LENGTH "${round}" digits)
  math(EXPR bytes "${durable} + ${digits} - 1")
  string(REGEX REPLACE "\"bytes\":[0-9]+" "\"bytes\":${bytes}" ckpt
         "${sidecar}")
  string(REGEX REPLACE "\"rounds\":[0-9]+" "\"rounds\":${rounds}" ckpt
         "${ckpt}")
  expect_refused("${head}\"round\":${round},${tail}" "${ckpt}" "${expect}")
endfunction()

set(order "record out of round order in [^\n]*tampered_round\\.jsonl")
expect_round_refused(18446744073709551615 1
                     "unparseable record in [^\n]*tampered_round\\.jsonl")
expect_round_refused(1 1 "${order}")
expect_round_refused(1 2 "${order}")
expect_round_refused(0 5
                     "tampered_round\\.jsonl\\.ckpt: target 0 claims 5 rounds")
string(REGEX REPLACE "\"bytes\":[0-9]+" "\"bytes\":18446744073709551615" ckpt
       "${sidecar}")
expect_refused("${records}" "${ckpt}"
               "tampered_round\\.jsonl is missing or shorter than its checkpoint")

message(STATUS "tampered resumes refused")
