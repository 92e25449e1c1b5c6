# Checks that EXPERIMENTS.md quotes the checked-in paper report:
#
#   cmake -DEXPERIMENTS=EXPERIMENTS.md -DREPORT=bench/paper_report.txt
#         -P bench/check_experiments_md.cmake
#
# Every markdown table row above the "## Ablations" heading (the
# ablation binaries are not part of the report) must occur verbatim as a
# line of REPORT. One row is exempt: Table 6's "Measured train /
# duplicate" row, which EXPERIMENTS.md gives as the median of three runs
# rather than the single run the report records.

file(READ ${EXPERIMENTS} Text)
file(READ ${REPORT} Report)
# A semicolon would split a row in two as a CMake list element.
string(REPLACE ";" "<semicolon>" Text "${Text}")
string(REPLACE ";" "<semicolon>" Report "${Report}")
string(FIND "${Text}" "\n## Ablations" End)
if(End GREATER -1)
  string(SUBSTRING "${Text}" 0 ${End} Text)
endif()

set(Exempt "| Measured train / duplicate |")
string(REGEX MATCHALL "\n\\|[^\n]*" Rows "${Text}")
set(Missing "")
set(Checked 0)
foreach(Row IN LISTS Rows)
  string(SUBSTRING "${Row}" 1 -1 Row)
  string(FIND "${Row}" "${Exempt}" IsExempt)
  if(IsExempt EQUAL 0)
    continue()
  endif()
  math(EXPR Checked "${Checked} + 1")
  string(FIND "\n${Report}" "\n${Row}\n" Pos)
  if(Pos EQUAL -1)
    string(APPEND Missing "\n  ${Row}")
  endif()
endforeach()
if(Checked EQUAL 0)
  message(FATAL_ERROR "no table rows found in ${EXPERIMENTS}")
endif()
if(Missing)
  message(FATAL_ERROR "EXPERIMENTS.md rows not in ${REPORT}:${Missing}")
endif()
message(STATUS "${Checked} EXPERIMENTS.md table rows occur in the report")
