# Runs `qpwm detect-csv --fingerprint N` with candidate pools above the
# CLI's cap and requires a usage error for each: exit code 2 and the
# InvalidArgument Status on stderr, instead of a scan over the pool.
#   cmake -DQPWM=<qpwm binary> -DWORK=<work dir> -P cli_fingerprint_pool.cmake
file(MAKE_DIRECTORY "${WORK}")
set(csv "${WORK}/sales.csv")
set(rows "order,region,revenue\n")
foreach(i RANGE 1 60)
  math(EXPR region "${i} % 6 + 1")
  math(EXPR revenue "50 + (${i} * 37) % 100")
  string(APPEND rows "O${i},R${region},${revenue}\n")
endforeach()
file(WRITE "${csv}" "${rows}")

foreach(pool 18446744073709551615 100000001)
  execute_process(
    COMMAND "${QPWM}" detect-csv --original "${csv}" --suspect "${csv}"
            --schema "order:key,region:key,revenue:weight:order"
            --table Sales --query "Sales(v1, u1)" --param-column region
            --fingerprint ${pool}
    RESULT_VARIABLE code
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT code EQUAL 2)
    message(FATAL_ERROR "--fingerprint ${pool}: exit ${code}, want 2\n${out}${err}")
  endif()
  if(NOT err MATCHES "InvalidArgument: --fingerprint needs an unsigned integer in \\[1, 100000000\\]")
    message(FATAL_ERROR "--fingerprint ${pool}: no InvalidArgument status\n${err}")
  endif()
endforeach()
