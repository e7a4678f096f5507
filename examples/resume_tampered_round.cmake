# A resume refuses durable records and sidecars that its checkpoint cannot
# vouch for, instead of trusting their numbers. Crashes the adaptive spec
# after its first durable round (as shard_roundtrip.cmake does), then
# tampers with a copy of the files five ways and expects each --resume to
# exit 1 with an error naming the file:
#   - the first record's round set to 2^64-1 (the sidecar's byte count
#     raised by the 19 added characters): refused as unparseable;
#   - the first record's round set to 1, not below the 1 durable round;
#   - the sidecar claiming 2 rounds and the first record in round 1, so
#     the next record's round 0 steps back;
#   - the sidecar claiming more rounds than the spec's max_rounds (4);
#   - the sidecar claiming 2^64-1 durable bytes.
# Two more cases check that the durable prefix is exactly the records the
# sidecar counts:
#   - the static spec crashed after its first batch, its sidecar's byte
#     count lowered to 100, inside the first record;
#   - a coverage campaign (the adaptive spec's target, 2 ms windows) crashed
#     after its second round, its sidecar lowered to 1 round and 2 records
#     while the byte count still covers round 1's records too.
#
# Usage:
#   cmake -DSWEEP=<run_sweep> -DSPEC=<mini_bisect.json>
#         -DSTATIC_SPEC=<mini_campaign.json> -DWORK=<dir>
#         -P resume_tampered_round.cmake

foreach(var SWEEP SPEC STATIC_SPEC WORK)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "missing -D${var}")
  endif()
endforeach()

# Runs `spec` into `out` and expects the crash seam's exit 9 after
# `batches` durable batches (rounds, for a strategy spec).
function(crash spec out batches)
  file(REMOVE ${out} ${out}.ckpt)
  execute_process(COMMAND ${SWEEP} --spec ${spec} --out ${out}
                          --crash-after-batches ${batches}
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 9)
    message(FATAL_ERROR "crash run of ${spec} exited '${rc}' (wanted 9)\n"
                        "${err}")
  endif()
endfunction()

# Resumes `spec` from the files at `out` and expects exit 1 with `expect`
# on stderr.
function(expect_resume_refused spec out expect)
  file(READ ${out}.ckpt ckpt_text)
  execute_process(COMMAND ${SWEEP} --spec ${spec} --out ${out} --resume
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

# Resumes the adaptive spec from `data_text` and `ckpt_text` and expects
# exit 1 with `expect` on stderr.
function(expect_refused data_text ckpt_text expect)
  file(WRITE ${data} "${data_text}")
  file(WRITE ${data}.ckpt "${ckpt_text}")
  expect_resume_refused(${SPEC} ${data} "${expect}")
endfunction()

set(pristine ${WORK}/tampered_pristine.jsonl)
set(data ${WORK}/tampered_round.jsonl)
file(REMOVE ${data} ${data}.ckpt)
crash(${SPEC} ${pristine} 1)
file(READ ${pristine} records)
file(READ ${pristine}.ckpt sidecar)
string(REGEX MATCH "\"bytes\":([0-9]+)" unused "${sidecar}")
set(durable ${CMAKE_MATCH_1})

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

# Static spec: a byte count that ends inside a record.
set(static ${WORK}/tampered_static.jsonl)
crash(${STATIC_SPEC} ${static} 1)
file(READ ${static}.ckpt ckpt)
string(REGEX REPLACE "\"bytes\":[0-9]+" "\"bytes\":100" ckpt "${ckpt}")
file(WRITE ${static}.ckpt "${ckpt}")
expect_resume_refused(${STATIC_SPEC} ${static}
                      "tampered_static\\.jsonl has a torn record")

# Strategy spec: a byte count that covers records past the sidecar's count.
set(coverage_spec ${WORK}/tampered_coverage.json)
file(WRITE ${coverage_spec} [=[
{
  "name": "mini-coverage",
  "seed": 11,
  "strategy": {
    "name": "coverage",
    "knob": "udp-us",
    "axis_lo": 12,
    "axis_hi": 396,
    "max_rounds": 4
  },
  "targets": [
    {
      "name": "myri",
      "medium": "myrinet",
      "faults": ["gap-go"],
      "directions": ["both"],
      "warmup_ms": 2,
      "duration_ms": 2,
      "drain_ms": 2,
      "map_period_ms": 40
    }
  ]
}
]=])
set(coverage ${WORK}/tampered_coverage.jsonl)
crash(${coverage_spec} ${coverage} 2)
file(READ ${coverage}.ckpt ckpt)
if(NOT ckpt MATCHES "\"rounds\":2,\"records\":4,")
  message(FATAL_ERROR "coverage crash did not leave 2 rounds of 2 runs:\n"
                      "${ckpt}")
endif()
string(REPLACE "\"rounds\":2,\"records\":4," "\"rounds\":1,\"records\":2,"
       ckpt "${ckpt}")
file(WRITE ${coverage}.ckpt "${ckpt}")
expect_resume_refused(${coverage_spec} ${coverage}
                      "tampered_coverage\\.jsonl has more records")

message(STATUS "tampered resumes refused")
