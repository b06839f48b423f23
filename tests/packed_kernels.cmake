# Fails unless the two exact column kernels are packed: the Euclidean
# gain-tile fill (phy/gain_table.cpp, fill_row) must use sqrtpd and divpd,
# and the field accumulation (phy/interference.cpp, accumulate_columns)
# packed addpd. Both vectorize at the project's -O2 only while their loops
# keep restrict pointers, an even trip count and no branch (and sqrt no
# errno branch, -fno-math-errno); an edit or a compiler that turns them
# scalar again keeps every bit but loses the speed, so this check names it.
#
#   cmake -DOBJDUMP=<objdump> -DOBJECTS=<obj>|<obj>|... -P packed_kernels.cmake
#
# OBJECTS is udwn_phy's object list joined with '|'. The VEX forms
# (vsqrtpd, ...) of a -march build count too.
string(REPLACE "|" ";" objects "${OBJECTS}")

function(expect_packed file)
  set(object "")
  foreach(candidate IN LISTS objects)
    get_filename_component(name "${candidate}" NAME)
    if(name MATCHES "^${file}\\.(o|obj)$")
      set(object "${candidate}")
    endif()
  endforeach()
  if(object STREQUAL "")
    message(FATAL_ERROR "no object for ${file} in: ${objects}")
  endif()
  execute_process(COMMAND "${OBJDUMP}" -d --no-show-raw-insn "${object}"
                  OUTPUT_VARIABLE asm RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${OBJDUMP} -d ${object} exited ${rc}")
  endif()
  foreach(mnemonic IN LISTS ARGN)
    if(asm MATCHES "\tv?${mnemonic}[ \t]")
      message(STATUS "${file}: ${mnemonic} present")
    else()
      message(FATAL_ERROR "${file}: no ${mnemonic}; its column kernel "
                          "is no longer packed (${object})")
    endif()
  endforeach()
endfunction()

expect_packed(gain_table.cpp sqrtpd divpd)
expect_packed(interference.cpp addpd)
