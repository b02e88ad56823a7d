# End-to-end identity of the CSV path: writes a 2000-row
# order,customer,revenue ledger, marks it with `qpwm mark-csv` at one and at
# four worker threads, and requires
#   - byte-identical marked files from both runs,
#   - the SHA-256 of that file to equal kMarkedSha256 (the marked bytes the
#     per-row load path produced; any drift in element ids, tuple order,
#     active ids or parameter-domain order changes it),
#   - `qpwm detect-csv` on the marked copy to exit 0 with the payload,
#   - the same ledger written non-canonically (CRLF line endings, quoted key
#     fields holding a comma, a doubled quote or a newline, blank lines at the
#     end or no final newline) to mark to kMessySha256 from both spellings,
#   - a ledger whose weights sum past 2^61 in absolute value (int64 extremes)
#     to exit 2 with a ParseError, as original and as suspect,
#   - a header wider than the default CSV column limit to exit 2.
#   cmake -DQPWM=<qpwm binary> -DWORK=<work dir> -P cli_csv_mark_detect.cmake
set(kMarkedSha256 "195b5319f39dc969df5465b2f661e25d8d96b4f18178f6070be59dd2ffb30348")
set(kMessySha256 "9a3941558ad990a197f168c8441d03fa64add102e15f3c1189ead8ecd86267fb")
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

# The non-canonical ledger: every 3rd customer cell and every 5th order cell
# quoted; customers divisible by 17 hold a comma, orders divisible by 7 a
# doubled quote and orders divisible by 11 a newline. Both spellings parse to
# the same table, so both mark to the same bytes (the writer emits LF and
# quotes only where needed).
set(messy "order,customer,revenue\r\n")
foreach(i RANGE 1 2000)
  math(EXPR customer "(${i} * 131) % 500 + 1")
  math(EXPR revenue "20 + (${i} * 7919) % 480")
  math(EXPR by3 "${i} % 3")
  math(EXPR by5 "${i} % 5")
  math(EXPR by7 "${i} % 7")
  math(EXPR by11 "${i} % 11")
  math(EXPR by17 "${customer} % 17")
  if(by7 EQUAL 0)
    set(order "\"O\"\"${i}\"")
  elseif(by11 EQUAL 0)
    set(order "\"O\n${i}\"")
  elseif(by5 EQUAL 0)
    set(order "\"O${i}\"")
  else()
    set(order "O${i}")
  endif()
  if(by17 EQUAL 0)
    set(cust "\"C,${customer}\"")
  elseif(by3 EQUAL 0)
    set(cust "\"C${customer}\"")
  else()
    set(cust "C${customer}")
  endif()
  string(APPEND messy "${order},${cust},${revenue}\r\n")
endforeach()
file(WRITE "${WORK}/messy_blank.csv" "${messy}\r\n\r\n\n")
string(REGEX REPLACE "\r\n$" "" messy_nonl "${messy}")
file(WRITE "${WORK}/messy_nonl.csv" "${messy_nonl}")
foreach(spelling blank nonl)
  execute_process(
    COMMAND "${QPWM}" mark-csv --in "${WORK}/messy_${spelling}.csv"
            --out "${WORK}/messy_${spelling}.marked.csv" ${flags}
    RESULT_VARIABLE code
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "mark-csv on messy_${spelling}.csv: exit ${code}\n${out}${err}")
  endif()
  file(SHA256 "${WORK}/messy_${spelling}.marked.csv" sha)
  if(NOT sha STREQUAL kMessySha256)
    message(FATAL_ERROR "marked messy_${spelling} SHA-256 ${sha}, want ${kMessySha256}")
  endif()
endforeach()
execute_process(
  COMMAND "${QPWM}" detect-csv --original "${WORK}/messy_nonl.csv"
          --suspect "${WORK}/messy_blank.marked.csv" ${flags}
  RESULT_VARIABLE code
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT code EQUAL 0 OR NOT out MATCHES "decoded ${kPayload}")
  message(FATAL_ERROR "detect-csv on the marked messy copy: exit ${code}\n${out}${err}")
endif()

# Weights at the int64 extremes: a +-1 mark or an answer sum would wrap, so
# the load rejects the table, on the original and on the suspect side.
set(extreme "order,customer,revenue\n")
foreach(i RANGE 1 400)
  math(EXPR customer "${i} % 100")
  math(EXPR kind "${i} % 3")
  if(kind EQUAL 0)
    set(revenue "9223372036854775807")
  elseif(kind EQUAL 1)
    set(revenue "-9223372036854775807")
  else()
    set(revenue "-9223372036854775808")
  endif()
  string(APPEND extreme "o${i},c${customer},${revenue}\n")
endforeach()
file(WRITE "${WORK}/extreme.csv" "${extreme}")
set(extreme_flags --schema "order:key,customer:key,revenue:weight:order" --table Sales
                  --query "Sales(v1,u1)" --param-column customer)
execute_process(
  COMMAND "${QPWM}" mark-csv --in "${WORK}/extreme.csv" --out "${WORK}/extreme.marked.csv"
          ${extreme_flags}
  RESULT_VARIABLE code
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT code EQUAL 2 OR NOT err MATCHES "ParseError: .*exceeds 2\\^61")
  message(FATAL_ERROR "int64-extreme CSV: exit ${code}, want 2 and a ParseError\n${out}${err}")
endif()
execute_process(
  COMMAND "${QPWM}" detect-csv --original "${csv}" --suspect "${WORK}/extreme.csv" ${flags}
  RESULT_VARIABLE code
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT code EQUAL 2 OR NOT err MATCHES "ParseError: .*exceeds 2\\^61")
  message(FATAL_ERROR "int64-extreme suspect: exit ${code}, want 2 and a ParseError\n${out}${err}")
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
