# Runs the paper report at default scale and compares it with the
# checked-in output:
#
#   cmake -DREPORT=<paper_report binary> -DEXPECTED=bench/paper_report.txt
#         -DACTUAL=<where to save this run's output>
#         -P bench/check_paper_report.cmake
#
# The report must exit 0 (every claim holds), and its stdout must equal
# EXPECTED line for line once Table 6's timing rows, the only
# machine-dependent lines, are dropped from both sides.

cmake_policy(SET CMP0007 NEW) # keep empty lines as list elements

execute_process(COMMAND ${REPORT}
  OUTPUT_VARIABLE Actual
  RESULT_VARIABLE Rc)
file(WRITE ${ACTUAL} "${Actual}")
if(NOT Rc EQUAL 0)
  message(FATAL_ERROR "paper_report exited with ${Rc} (a claim failed?); "
                      "its output is in ${ACTUAL}")
endif()
file(READ ${EXPECTED} Expected)

set(TimingRow "\n\\| Measured (train / duplicate|total) \\|[^\n]*")
string(REGEX REPLACE "${TimingRow}" "" Actual "${Actual}")
string(REGEX REPLACE "${TimingRow}" "" Expected "${Expected}")
if(Actual STREQUAL Expected)
  return()
endif()

# Report the first differing line. Lines become CMake list elements, so
# their own semicolons are escaped first.
foreach(Side Actual Expected)
  string(REPLACE ";" "<semicolon>" ${Side} "${${Side}}")
  string(REPLACE "\n" ";" ${Side}Lines "${${Side}}")
endforeach()
list(LENGTH ActualLines NumActual)
list(LENGTH ExpectedLines NumExpected)
set(Line 0)
while(Line LESS NumActual AND Line LESS NumExpected)
  list(GET ActualLines ${Line} A)
  list(GET ExpectedLines ${Line} E)
  if(NOT A STREQUAL E)
    break()
  endif()
  math(EXPR Line "${Line} + 1")
endwhile()
set(A "<end of output>")
set(E "<end of file>")
if(Line LESS NumActual)
  list(GET ActualLines ${Line} A)
endif()
if(Line LESS NumExpected)
  list(GET ExpectedLines ${Line} E)
endif()
math(EXPR Shown "${Line} + 1")
message(FATAL_ERROR
  "paper_report output differs from ${EXPECTED} at line ${Shown} "
  "(timing rows dropped):\n  expected: ${E}\n  actual:   ${A}\n"
  "full output: ${ACTUAL}")
