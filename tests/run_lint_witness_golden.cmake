# Golden-output check for witness rendering: run ode-lint --witness=on on
# the demo fixture and byte-compare stdout against the checked-in golden
# file. The witness BFS is deterministic (lexicographically least shortest
# history), so any drift here is a real rendering or verdict change and
# must be accompanied by a golden update.
#
# Inputs: -DLINT=<ode-lint binary> -DFIXTURE=<source .trig>
#         -DGOLDEN=<expected stdout> -DACTUAL=<where to dump actual>
#         [-DFORMAT=json: compare the --format=json document instead].

get_filename_component(fixture_dir ${FIXTURE} DIRECTORY)
get_filename_component(fixture_name ${FIXTURE} NAME)
set(format_args)
if(DEFINED FORMAT)
  set(format_args --format=${FORMAT})
endif()
execute_process(COMMAND ${LINT} ${format_args} --witness=on ${fixture_name}
  WORKING_DIRECTORY ${fixture_dir}
  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR
    "expected exit 1 (fixture has an A001 error), got ${rc}:\n${out}${err}")
endif()

file(WRITE ${ACTUAL} "${out}")
file(READ ${GOLDEN} want)
if(NOT out STREQUAL want)
  message(FATAL_ERROR
    "witness rendering drifted from golden.\n"
    "  golden: ${GOLDEN}\n  actual: ${ACTUAL}\n"
    "Diff the two files; if the change is intended, refresh the golden.")
endif()
message(STATUS "ode-lint witness golden ok")
