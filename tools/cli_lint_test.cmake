# Golden tests for the lint CLI: the committed artifacts must lint clean
# (exit 0), and each broken fixture must exit 2 reporting exactly its
# expected rule ID. Inputs: TOOL (epea_tool path), SRCDIR (repo root),
# WORKDIR (scratch directory for generated fixtures).

function(expect_lint expected_rc expected_rule)
  execute_process(COMMAND ${TOOL} lint ${ARGN}
                  WORKING_DIRECTORY ${SRCDIR}
                  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT rc EQUAL ${expected_rc})
    message(FATAL_ERROR "lint ${ARGN}: exit ${rc}, expected ${expected_rc}\n${out}${err}")
  endif()
  if(NOT expected_rule STREQUAL "" AND NOT out MATCHES "${expected_rule}")
    message(FATAL_ERROR "lint ${ARGN}: expected ${expected_rule} in:\n${out}")
  endif()
endfunction()

# The committed artifacts (model, paper matrix, reference placements,
# frontier_placement_input.dot, source tree) are clean: warnings allowed,
# no errors.
expect_lint(0 "" all)
expect_lint(0 "\"errors\":0" all --json)
expect_lint(0 "EPEA-W020" rules)
expect_lint(0 "" metrics)

# --strict promotes the known warnings (W020 dead-end intermediate) to a
# failing exit, proving the flag reaches the exit-code contract.
expect_lint(2 "EPEA-W020" all --strict)

# Each golden broken fixture triggers exactly its rule.
expect_lint(2 "EPEA-E010" model --model tests/fixtures/broken_model.sys)
expect_lint(2 "EPEA-E030" matrix --matrix tests/fixtures/broken_matrix.csv)
expect_lint(2 "EPEA-E040" placement --ea i,no_such_signal)
expect_lint(2 "EPEA-E044" placement --frontier-dot tests/fixtures/broken_frontier.dot)
expect_lint(2 "EPEA-E046" placement --frontier-dot tests/fixtures/broken_frontier.dot)

# Prover-backed structure rules (DESIGN.md §16). shadowed_matrix.csv is
# the paper matrix with the DIST_S PACNT->pulscnt cell zeroed: signal i
# keeps a positive exposure (so W043 stays silent) yet no system-input
# error can reach it -> EPEA-W063 alone.
expect_lint(2 "EPEA-W063" placement --strict
            --matrix tests/fixtures/shadowed_matrix.csv --ea i)
execute_process(COMMAND ${TOOL} lint placement
                        --matrix tests/fixtures/shadowed_matrix.csv --ea i
                WORKING_DIRECTORY ${SRCDIR} OUTPUT_VARIABLE out)
if(out MATCHES "EPEA-W043")
  message(FATAL_ERROR "W043 should not fire on shadowed_matrix (positive exposure):\n${out}")
endif()

# mscnt+IsValue lie on no input->output path, so a full-coverage claim
# over them is provably uncut -> EPEA-W064 with a concrete witness path.
expect_lint(2 "EPEA-W064" placement --strict --ea mscnt,IsValue --full-coverage)
execute_process(COMMAND ${TOOL} lint placement --ea mscnt,IsValue --full-coverage
                WORKING_DIRECTORY ${SRCDIR} OUTPUT_VARIABLE out)
if(NOT out MATCHES "PACNT -> ")
  message(FATAL_ERROR "W064 should carry a witness path:\n${out}")
endif()

# `lint matrix --model FILE.sys` checks the matrix against that model, so
# a synthetic system's own matrix lints clean (no E010 unknown module).
execute_process(COMMAND ${TOOL} synth --seed 1 --out ${WORKDIR}/lint_s1.sys
                        --matrix-out ${WORKDIR}/lint_s1.csv
                RESULT_VARIABLE rc ERROR_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "synth --seed 1 failed: ${rc}")
endif()
expect_lint(0 "0 error" matrix --model ${WORKDIR}/lint_s1.sys
            --matrix ${WORKDIR}/lint_s1.csv)
execute_process(COMMAND ${TOOL} lint matrix --model ${WORKDIR}/lint_s1.sys
                        --matrix ${WORKDIR}/lint_s1.csv
                OUTPUT_VARIABLE out)
if(out MATCHES "EPEA-E010")
  message(FATAL_ERROR "lint matrix --model reported E010 against its own model:\n${out}")
endif()

# Without --matrix a custom --model has no paper Table 1: every prong that
# needs a matrix still prints a report (exit 0 or 2), never a runtime
# error (exit 1).
foreach(target "all" "matrix" "placement;--ea;sig_1_0")
  execute_process(COMMAND ${TOOL} lint ${target} --model ${WORKDIR}/lint_s1.sys
                  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT (rc EQUAL 0 OR rc EQUAL 2) OR NOT out MATCHES "error")
    message(FATAL_ERROR "lint ${target} --model lint_s1.sys: exit ${rc}\n${out}${err}")
  endif()
endforeach()

# Unknown lint targets fail loudly with the usage text.
execute_process(COMMAND ${TOOL} lint frobnicate RESULT_VARIABLE rc
                OUTPUT_QUIET ERROR_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "lint frobnicate unexpectedly succeeded")
endif()
