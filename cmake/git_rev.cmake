# Writes the provenance revision header at build time:
#
#   cmake -DSOURCE_DIR=<checkout> -DOUTPUT=<header>
#         [-DGIT_EXECUTABLE=<git>] -P cmake/git_rev.cmake
#
# The header defines PRACLEAK_GIT_REV as `git describe --always
# --dirty` of SOURCE_DIR, or "unknown" outside a git checkout.  It is
# rewritten only when the value changes, so the one source that
# includes it recompiles only then.

set(rev "unknown")
if(GIT_EXECUTABLE)
  execute_process(
    COMMAND ${GIT_EXECUTABLE} -C ${SOURCE_DIR} describe --always --dirty
    OUTPUT_VARIABLE out
    OUTPUT_STRIP_TRAILING_WHITESPACE
    ERROR_QUIET
    RESULT_VARIABLE rc)
  if(rc EQUAL 0)
    set(rev "${out}")
  endif()
endif()

set(content "#define PRACLEAK_GIT_REV \"${rev}\"\n")
if(EXISTS "${OUTPUT}")
  file(READ "${OUTPUT}" old)
endif()
if(NOT "${old}" STREQUAL "${content}")
  file(WRITE "${OUTPUT}" "${content}")
endif()
