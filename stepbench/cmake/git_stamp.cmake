# Script-mode shim: the library's CMakeLists.txt looks for the git stamp
# script under the top-level source directory, which for this standalone
# build is stepbench/. Forward to the repository's script.
include(${CMAKE_CURRENT_LIST_DIR}/../../cmake/git_stamp.cmake)
