# Golden check for one deterministic figure binary (cmake -P script).
#
#   cmake -DBIN=<binary> -DNAME=<name> -DGOLDEN_DIR=<dir> -DWORK_DIR=<dir>
#         "-DJSON=<artifact;...>" -P check.cmake
#
# Runs BIN in an empty WORK_DIR with FSDP_ARTIFACT_DIR=WORK_DIR, and compares
# byte for byte: its stdout against GOLDEN_DIR/NAME.txt, and every artifact it
# writes against GOLDEN_DIR/<artifact>. The set of artifacts written must be
# exactly JSON. The one normalisation: the artifact directory in stdout's
# "wrote <path> (N rows)" lines reads "<artifact_dir>".
foreach(var BIN NAME GOLDEN_DIR WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check.cmake: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(ENV{FSDP_ARTIFACT_DIR} "${WORK_DIR}")
execute_process(COMMAND "${BIN}"
                WORKING_DIRECTORY "${WORK_DIR}"
                OUTPUT_VARIABLE out
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${NAME} exited with ${rc}")
endif()
string(REPLACE "wrote ${WORK_DIR}/" "wrote <artifact_dir>/" out "${out}")
file(WRITE "${WORK_DIR}/${NAME}.txt" "${out}")

set(failed "")
set(files "${NAME}.txt")
list(APPEND files ${JSON})
foreach(f IN LISTS files)
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                          "${GOLDEN_DIR}/${f}" "${WORK_DIR}/${f}"
                  RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    list(APPEND failed "${f}")
  endif()
endforeach()

file(GLOB written RELATIVE "${WORK_DIR}" "${WORK_DIR}/*.json")
list(SORT written)
set(expected ${JSON})
list(SORT expected)
if(NOT "${written}" STREQUAL "${expected}")
  message(FATAL_ERROR "${NAME} wrote artifacts [${written}], "
                      "golden lists [${expected}]")
endif()

if(failed)
  message(FATAL_ERROR "${NAME} differs from its golden in: ${failed}\n"
                      "  diff ${GOLDEN_DIR}/<file> ${WORK_DIR}/<file>")
endif()
