# Fails when a file under src/ or bench/ other than src/util/env.cc
# calls getenv. Run as: cmake -DQNN_ROOT=<repo> -P lint_env_reads.cmake
file(GLOB_RECURSE files "${QNN_ROOT}/src/*" "${QNN_ROOT}/bench/*")
set(hits "")
foreach(f IN LISTS files)
  if(NOT f STREQUAL "${QNN_ROOT}/src/util/env.cc")
    file(STRINGS "${f}" lines REGEX "getenv")
    foreach(line IN LISTS lines)
      string(APPEND hits "\n  ${f}: ${line}")
    endforeach()
  endif()
endforeach()
if(hits)
  message(FATAL_ERROR "read the environment through util/env, not getenv:"
                      "${hits}")
endif()
