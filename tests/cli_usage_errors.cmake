# Runs `qpwm mark-csv` with a schema whose weight column is not "of" a key
# column and with a query atom whose arity or relation does not fit the
# table, and requires a usage error for each: exit code 2 and an
# InvalidArgument Status on stderr, not an abort.
#   cmake -DQPWM=<qpwm binary> -DWORK=<work dir> -P cli_usage_errors.cmake
file(MAKE_DIRECTORY "${WORK}")
set(one "${WORK}/one.csv")
file(WRITE "${one}" "a,w\nx,5\n")
set(sales "${WORK}/sales.csv")
file(WRITE "${sales}" "order,customer,revenue\nO1,C1,5\nO2,C1,7\nO3,C2,9\n")

function(expect_usage_error what)
  execute_process(
    COMMAND "${QPWM}" mark-csv ${ARGN} --out "${WORK}/out.csv" --mark 1
    RESULT_VARIABLE code
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT code EQUAL 2)
    message(FATAL_ERROR "${what}: exit ${code}, want 2\n${out}${err}")
  endif()
  if(NOT err MATCHES "InvalidArgument: ")
    message(FATAL_ERROR "${what}: no InvalidArgument status\n${err}")
  endif()
endfunction()

expect_usage_error("weight of an unknown column"
  --in "${one}" --schema "a:key,w:weight:zz" --table T --query "T(v1)")
expect_usage_error("weight of itself"
  --in "${one}" --schema "a:key,w:weight:w" --table T --query "T(v1)")
expect_usage_error("query arity below the table's"
  --in "${sales}" --schema "order:key,customer:key,revenue:weight:order"
  --table Sales --query "Sales(v1)" --key 1:2)
expect_usage_error("query over an unknown relation"
  --in "${sales}" --schema "order:key,customer:key,revenue:weight:order"
  --table Sales --query "Orders(u1, v1)" --key 1:2)
