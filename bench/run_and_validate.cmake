# Capture-then-validate runner behind the bench ctests. Everything after
# the script name is a list of keyword groups:
#
#   cmake -P run_and_validate.cmake
#         [OUTPUTS <file>...]       removed first; each must exist after RUN
#         [RUN <command> [arg...]]...            run in order; must exit 0
#         [STDOUT <file> <command> [arg...]]...  a RUN whose stdout is <file>
#         [SAME <file> <file>]                   must be byte-identical
#         [VALIDATE <validator> <file>...]        run last; must exit 0
#         [REJECT <validator> (<file> <diagnostic>)...]
#
# REJECT runs the validator on each file alone and requires exit code 1
# with the paired diagnostic on stderr, so a gate that stops rejecting
# bad input fails the test instead of passing vacuously.
set(group "")
set(ncommands 0)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  set(arg "${CMAKE_ARGV${i}}")
  if(group STREQUAL "")
    if(arg STREQUAL "-P")
      set(group SCRIPT)
    endif()
  elseif(group STREQUAL "SCRIPT")
    set(group NONE)
  elseif(arg MATCHES "^(OUTPUTS|VALIDATE|REJECT|SAME)$")
    set(group ${arg})
  elseif(arg MATCHES "^(RUN|STDOUT)$")
    math(EXPR ncommands "${ncommands} + 1")
    set(group RUN${ncommands})
    if(arg STREQUAL "STDOUT")
      set(RUN${ncommands} OUTPUT_FILE)  # run_checked redirects stdout
    endif()
  elseif(group STREQUAL "NONE")
    message(FATAL_ERROR "run_and_validate.cmake: '${arg}' outside a group")
  else()
    list(APPEND ${group} "${arg}")
  endif()
endforeach()

if(OUTPUTS)
  file(REMOVE ${OUTPUTS})
endif()

function(run_checked)  # [OUTPUT_FILE <file>] <command> [arg...]
  set(to OUTPUT_VARIABLE out)
  if(ARGV0 STREQUAL "OUTPUT_FILE")
    list(POP_FRONT ARGN _ file)
    set(to OUTPUT_FILE ${file})
  endif()
  execute_process(COMMAND ${ARGN} ${to} RESULT_VARIABLE rc ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    string(REPLACE ";" " " cmd "${ARGN}")
    message(FATAL_ERROR "${cmd}\nexited with ${rc}\n${out}\n${err}")
  endif()
endfunction()

if(ncommands GREATER 0)
  foreach(k RANGE 1 ${ncommands})
    run_checked(${RUN${k}})
  endforeach()
endif()

foreach(out IN LISTS OUTPUTS)
  if(NOT EXISTS "${out}")
    message(FATAL_ERROR "capture did not produce ${out}")
  endif()
endforeach()

if(SAME)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${SAME} RESULT_VARIABLE differ)
  if(differ)
    list(JOIN SAME " and " pair)
    message(FATAL_ERROR "${pair} are not byte-identical")
  endif()
endif()

if(VALIDATE)
  run_checked(${VALIDATE})
endif()

if(REJECT)
  list(POP_FRONT REJECT validator)
  while(REJECT)
    list(POP_FRONT REJECT file diagnostic)
    execute_process(COMMAND "${validator}" "${file}"
                    RESULT_VARIABLE rc ERROR_VARIABLE err)
    if(NOT rc EQUAL 1)
      message(FATAL_ERROR "${file}: validator exited with ${rc}, want 1\n${err}")
    endif()
    string(FIND "${err}" "${diagnostic}" at)
    if(at EQUAL -1)
      message(FATAL_ERROR
              "${file}: rejected without '${diagnostic}'\n${err}")
    endif()
  endwhile()
endif()
