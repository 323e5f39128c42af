# Serve request schema bounds: validate_serve_api.py on an optimize body
# with `cases` = CASES must exit EXPECT_RC — 1 above the schema's maximum
# of 10000 (with the violation named), 0 within it.
# Invoked with -DPYTHON -DSRCDIR -DWORKDIR -DCASES -DEXPECT_RC.
set(body ${WORKDIR}/serve_optimize_cases_${CASES}.json)
file(WRITE ${body} "{\"benefit\":\"analytic\",\"cases\":${CASES}}\n")
execute_process(COMMAND ${PYTHON} ${SRCDIR}/tools/validate_serve_api.py
                        request optimize ${body}
                OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL EXPECT_RC)
  message(FATAL_ERROR "optimize body with cases=${CASES}: expected exit "
                      "${EXPECT_RC}, got ${rc}\n${out}${err}")
endif()
if(EXPECT_RC EQUAL 1 AND NOT err MATCHES "cases: ${CASES} above maximum 10000")
  message(FATAL_ERROR "optimize body with cases=${CASES} rejected for the "
                      "wrong reason:\n${err}")
endif()
