# Build file of the perfbench program. It is injected into the graphalign
# CMake project, so perfbench links the same libraries, built with the
# same flags, that `graphalign align` and `graphalign serve` use:
#
#   cmake -S . -B .bench_build/cmake \
#       -DCMAKE_PROJECT_graphalign_INCLUDE=$PWD/perfbench/perfbench.cmake
#   cmake --build .bench_build/cmake --target perfbench graphalign
#
# perfbench/run.py does exactly this before every run.
add_executable(perfbench EXCLUDE_FROM_ALL
  ${CMAKE_CURRENT_LIST_DIR}/perfbench.cc
  ${CMAKE_CURRENT_LIST_DIR}/serve.cc)
set_target_properties(perfbench PROPERTIES
  CXX_STANDARD 20 CXX_STANDARD_REQUIRED ON CXX_EXTENSIONS OFF)
target_compile_options(perfbench PRIVATE -Wall -Wextra)
target_link_libraries(perfbench PRIVATE ga_cli)
