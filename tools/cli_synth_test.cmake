# `epea_tool synth` byte-reproducibility: the same seed and shape flags
# must write identical system text and matrix CSV on every invocation,
# while a different seed or a non-zero cycle density changes the output.
execute_process(COMMAND ${TOOL} synth --layers 3 --width 2 --seed 7
                        --out ${WORKDIR}/synth_a.txt
                        --matrix-out ${WORKDIR}/synth_a.csv
                RESULT_VARIABLE rc1)
execute_process(COMMAND ${TOOL} synth --layers 3 --width 2 --seed 7
                        --out ${WORKDIR}/synth_b.txt
                        --matrix-out ${WORKDIR}/synth_b.csv
                RESULT_VARIABLE rc2)
if(NOT rc1 EQUAL 0 OR NOT rc2 EQUAL 0)
  message(FATAL_ERROR "synth failed: ${rc1}/${rc2}")
endif()
foreach(ext txt csv)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                          ${WORKDIR}/synth_a.${ext} ${WORKDIR}/synth_b.${ext}
                  RESULT_VARIABLE same)
  if(NOT same EQUAL 0)
    message(FATAL_ERROR "same seed produced different synth_${ext}")
  endif()
endforeach()

execute_process(COMMAND ${TOOL} synth --layers 3 --width 2 --seed 8
                        --out ${WORKDIR}/synth_c.txt
                RESULT_VARIABLE rc3)
if(NOT rc3 EQUAL 0)
  message(FATAL_ERROR "synth (seed 8) failed: ${rc3}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                        ${WORKDIR}/synth_a.txt ${WORKDIR}/synth_c.txt
                RESULT_VARIABLE diff)
if(diff EQUAL 0)
  message(FATAL_ERROR "different seeds produced identical systems")
endif()

# Cycle rewiring: with cycle_density 1.0 at this shape some input must
# rewire, so the wiring text differs from the acyclic run.
execute_process(COMMAND ${TOOL} synth --layers 3 --width 2 --seed 7
                        --cycle-density 1.0
                        --out ${WORKDIR}/synth_cyc.txt
                RESULT_VARIABLE rc4)
if(NOT rc4 EQUAL 0)
  message(FATAL_ERROR "synth (cyclic) failed: ${rc4}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                        ${WORKDIR}/synth_a.txt ${WORKDIR}/synth_cyc.txt
                RESULT_VARIABLE cyc_diff)
if(cyc_diff EQUAL 0)
  message(FATAL_ERROR "cycle-density 1.0 left the wiring unchanged")
endif()

# Shape flags are plain counts: a wide layer and a large fan-in are valid
# shapes, and a shape whose signal count overflows is refused by the
# generator (exit 1) instead of crashing.
foreach(shape "--width;1500;--layers;1;--fan-in;1;--fan-out;1"
              "--fan-in;200;--width;2;--layers;1")
  execute_process(COMMAND ${TOOL} synth ${shape} --out ${WORKDIR}/synth_big.txt
                  RESULT_VARIABLE rc_big ERROR_VARIABLE err_big)
  if(NOT rc_big EQUAL 0)
    message(FATAL_ERROR "synth ${shape} failed: ${rc_big}\n${err_big}")
  endif()
endforeach()
execute_process(COMMAND ${TOOL} synth --layers 18446744073709551615
                RESULT_VARIABLE rc_wrap ERROR_VARIABLE err_wrap OUTPUT_QUIET)
if(NOT rc_wrap EQUAL 1 OR NOT err_wrap MATCHES "overflow")
  message(FATAL_ERROR "synth --layers 2^64-1: exit '${rc_wrap}', expected 1 "
                      "naming the overflow\n${err_wrap}")
endif()
