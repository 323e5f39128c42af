# Malformed command lines: every one must exit 2 (never abort or crash)
# with a message on stderr that names the offending flag or argument.
# Input: TOOL (epea_tool path). No invocation here reaches a handler, so
# nothing is written and no server is started.

function(expect_rejected needle)
  execute_process(COMMAND ${TOOL} ${ARGN}
                  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc
                  TIMEOUT 30)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "epea_tool ${ARGN}: exit '${rc}', expected 2\n${err}")
  endif()
  string(FIND "${err}" "${needle}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "epea_tool ${ARGN}: stderr does not name '${needle}':\n${err}")
  endif()
endfunction()

# Non-numeric values, signs and trailing garbage.
expect_rejected(--cases estimate --cases abc)
expect_rejected(--mass simulate --mass x)
expect_rejected(--layers synth --layers -1)
expect_rejected(--cases estimate --cases -1)
expect_rejected(--times estimate --times 3x)
expect_rejected(--speed simulate --speed nan)
expect_rejected(--seed analytic validate --no-campaign --no-synth --seed 1.5)
expect_rejected(--top obs report --top -3 some-dir)

# Values outside the declared range.
expect_rejected(--edge-density synth --edge-density 7)
expect_rejected(--cycle-density synth --cycle-density -0.5)
expect_rejected(--batch-width estimate --batch-width 0)
expect_rejected(--batch-width estimate --batch-width 257)
expect_rejected(--bit inject --signal PACNT --bit 99 --at 2000)
expect_rejected(--budget-memory place optimize --budget-memory 1e999)
expect_rejected(--timeline-stall campaign resume --dir no-such-campaign
                --threads 2 --timeline-stall 4294967296)
expect_rejected(--port serve --port 99999)

# Missing values, unknown flags, extra or missing positionals.
expect_rejected(--cases estimate --cases)
expect_rejected(--bogus describe --bogus)
expect_rejected(--at inject --signal PACNT --bit 7)
expect_rejected(--campaign-dir lint campaign)
expect_rejected(--fresh analytic diff-plan --model m.sys --cached a.csv)
expect_rejected("'extra'" analyze matrix.csv extra)
expect_rejected(missing check)
expect_rejected(frobnicate lint frobnicate)
expect_rejected(frob campaign frob)
