# End-to-end identity of the CSV path: writes a 2000-row
# order,customer,revenue ledger, marks it with `qpwm mark-csv` at one and at
# four worker threads, and requires
#   - byte-identical marked files from both runs,
#   - the SHA-256 of that file to equal kMarkedSha256 (the marked bytes the
#     per-row load path produced; any drift in element ids, tuple order,
#     active ids or parameter-domain order changes it),
#   - `qpwm detect-csv` on the marked copy to exit 0 with the payload,
#   - a header wider than the default CSV column limit to exit 2.
#   cmake -DQPWM=<qpwm binary> -DWORK=<work dir> -P cli_csv_mark_detect.cmake
set(kMarkedSha256 "195b5319f39dc969df5465b2f661e25d8d96b4f18178f6070be59dd2ffb30348")
set(kPayload "1011001110")

file(MAKE_DIRECTORY "${WORK}")
set(csv "${WORK}/ledger.csv")
set(rows "order,customer,revenue\n")
foreach(i RANGE 1 2000)
  math(EXPR customer "(${i} * 131) % 500 + 1")
  math(EXPR revenue "20 + (${i} * 7919) % 480")
  string(APPEND rows "O${i},C${customer},${revenue}\n")
endforeach()
file(WRITE "${csv}" "${rows}")

set(flags --schema "order:key,customer:key,revenue:weight:order" --table Sales
          --query "Sales(v1, u1)" --param-column customer --key deadbeef:cafe
          --codec hamming --redundancy 3 --mark ${kPayload})

foreach(threads 1 4)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env QPWM_THREADS=${threads}
            "${QPWM}" mark-csv --in "${csv}" --out "${WORK}/marked.${threads}.csv" ${flags}
    RESULT_VARIABLE code
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "mark-csv at ${threads} thread(s): exit ${code}\n${out}${err}")
  endif()
  file(SHA256 "${WORK}/marked.${threads}.csv" sha_${threads})
endforeach()
if(NOT sha_1 STREQUAL sha_4)
  message(FATAL_ERROR "mark-csv output differs between 1 and 4 threads:\n${sha_1}\n${sha_4}")
endif()
if(NOT sha_1 STREQUAL kMarkedSha256)
  message(FATAL_ERROR "marked ledger SHA-256 ${sha_1}, want ${kMarkedSha256}")
endif()

execute_process(
  COMMAND "${QPWM}" detect-csv --original "${csv}" --suspect "${WORK}/marked.1.csv" ${flags}
  RESULT_VARIABLE code
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "detect-csv on the marked copy: exit ${code}\n${out}${err}")
endif()
if(NOT out MATCHES "decoded ${kPayload}")
  message(FATAL_ERROR "detect-csv did not decode ${kPayload}\n${out}")
endif()

# 1025 header fields: over CsvParseLimits::max_columns (1024).
string(REPEAT "," 1024 commas)
file(WRITE "${WORK}/wide.csv" "order${commas}\n")
execute_process(
  COMMAND "${QPWM}" mark-csv --in "${WORK}/wide.csv" --out "${WORK}/wide.marked.csv" ${flags}
  RESULT_VARIABLE code
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT code EQUAL 2 OR NOT err MATCHES "ParseError: record exceeds limit 1024 columns")
  message(FATAL_ERROR "over-wide CSV: exit ${code}, want 2 and a ParseError\n${out}${err}")
endif()
