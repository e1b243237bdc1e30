# Checks `dpcopula_report ingest` end to end:
#
#   cmake -DTOOL=<dpcopula_report> -DCASE=<case> -DLEDGER=<committed ledger>
#         -DWORK=<scratch dir> -P ingest_test.cmake
#
# truncated_ledger: --check against the first 60 bytes of LEDGER must exit
#   2, name the file, and leave it byte-for-byte as it was.
# label_round_trip: a label holding '"' and '\' must be written escaped:
#   the ledger parses (CMake's own JSON reader) and the report reads the
#   label back unchanged.
cmake_minimum_required(VERSION 3.19)  # string(JSON)

file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")
set(gbench "${WORK}/gbench.json")
file(WRITE "${gbench}" [=[{"benchmarks": [{"name": "BM_X",
  "run_type": "iteration", "real_time": 2.0, "time_unit": "ms",
  "items_per_second": 1000.0}]}
]=])
set(ledger "${WORK}/ledger.json")

function(run_tool)
  execute_process(COMMAND "${TOOL}" ${ARGN}
                  RESULT_VARIABLE status
                  OUTPUT_VARIABLE stdout
                  ERROR_VARIABLE stderr)
  set(status "${status}" PARENT_SCOPE)
  set(output "${stdout}${stderr}" PARENT_SCOPE)
endfunction()

if(CASE STREQUAL "truncated_ledger")
  file(READ "${LEDGER}" head LIMIT 60)
  file(WRITE "${ledger}" "${head}")
  run_tool(ingest --in "${gbench}" --out "${ledger}" --check)
  if(NOT status EQUAL 2)
    message(FATAL_ERROR "exit status ${status}, want 2:\n${output}")
  endif()
  string(FIND "${output}" "${ledger}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "error does not name ${ledger}:\n${output}")
  endif()
  file(READ "${ledger}" after)
  if(NOT "${after}" STREQUAL "${head}")
    message(FATAL_ERROR "truncated ledger was rewritten:\n${after}")
  endif()
elseif(CASE STREQUAL "label_round_trip")
  set(label [=[q"b\s]=])
  run_tool(ingest --in "${gbench}" --out "${ledger}" --label "${label}")
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "exit status ${status}, want 0:\n${output}")
  endif()
  file(READ "${ledger}" text)
  string(JSON parsed ERROR_VARIABLE json_error GET "${text}" runs 0 label)
  if(json_error OR NOT "${parsed}" STREQUAL "${label}")
    message(FATAL_ERROR "label did not round-trip (${json_error}):\n${text}")
  endif()
  run_tool(--bench "${ledger}" --out "${WORK}/report.md")
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "report exit status ${status}, want 0:\n${output}")
  endif()
  file(READ "${WORK}/report.md" report)
  string(FIND "${report}" "Baseline `${label}` vs current `${label}`" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "report lacks the label:\n${report}")
  endif()
else()
  message(FATAL_ERROR "unknown CASE '${CASE}'")
endif()
