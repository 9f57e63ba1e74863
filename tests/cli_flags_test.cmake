# Runs aimai_cli with ARGS (a comma-separated argument list) and checks
# its exit code against EXPECT_RC and, when EXPECT_STDERR is set, that
# stderr contains that text and stdout carries the usage.
#
#   cmake -DCLI=path/to/aimai_cli -DARGS=collect,--scael,2 \
#         -DEXPECT_RC=1 "-DEXPECT_STDERR=unknown flag --scael" \
#         -P cli_flags_test.cmake
string(REPLACE "," ";" args "${ARGS}")
execute_process(COMMAND "${CLI}" ${args}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc EQUAL EXPECT_RC)
  message(FATAL_ERROR "aimai_cli ${args}: exit ${rc}, want ${EXPECT_RC}\n"
                      "stderr: ${err}")
endif()
if(DEFINED EXPECT_STDERR)
  string(FIND "${err}" "${EXPECT_STDERR}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "aimai_cli ${args}: stderr lacks "
                        "'${EXPECT_STDERR}'\nstderr: ${err}")
  endif()
  string(FIND "${out}" "aimai_cli <command>" usage_at)
  if(usage_at EQUAL -1)
    message(FATAL_ERROR "aimai_cli ${args}: no usage on stdout\n"
                        "stdout: ${out}")
  endif()
endif()
