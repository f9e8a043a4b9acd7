# Golden-output check for cascade analysis: run ode-lint with the demo
# effects sidecar on the cascade fixture and byte-compare stdout against
# the checked-in golden file. Edge evaluation and the witness BFS are
# deterministic (lexicographically least shortest histories, first-found
# representative cycles), so any drift here is a real graph, verdict, or
# rendering change and must be accompanied by a golden update.
#
# Inputs: -DLINT=<ode-lint binary> -DFIXTURE=<source .trig>
#         -DEFFECTS=<effects sidecar> -DGOLDEN=<expected stdout>
#         -DACTUAL=<where to dump actual>
#         [-DFORMAT=json: compare the --format=json document instead].

get_filename_component(fixture_dir ${FIXTURE} DIRECTORY)
get_filename_component(fixture_name ${FIXTURE} NAME)
get_filename_component(effects_name ${EFFECTS} NAME)
set(format_args)
if(DEFINED FORMAT)
  set(format_args --format=${FORMAT})
endif()
execute_process(
  COMMAND ${LINT} ${format_args} --witness=on --effects=${effects_name}
          ${fixture_name}
  WORKING_DIRECTORY ${fixture_dir}
  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR
    "expected exit 1 (fixture has T001 errors), got ${rc}:\n${out}${err}")
endif()

file(WRITE ${ACTUAL} "${out}")
file(READ ${GOLDEN} want)
if(NOT out STREQUAL want)
  message(FATAL_ERROR
    "cascade rendering drifted from golden.\n"
    "  golden: ${GOLDEN}\n  actual: ${ACTUAL}\n"
    "Diff the two files; if the change is intended, refresh the golden.")
endif()
message(STATUS "ode-lint cascade golden ok")
