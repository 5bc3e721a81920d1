# Build file of the placer benchmark. run.py passes it to the repository's
# own top-level CMakeLists.txt as -DCMAKE_PROJECT_INCLUDE, so placer_bench
# links the repository's libraries built with the repository's own flags
# (build type, EP_MARCH, kernel vectorization). CMake includes this file
# right after the root project() call; the target is added by a deferred
# call at the end of the root directory, once every ep_* library exists.
set(PERFBENCH_DIR "${CMAKE_CURRENT_LIST_DIR}")

function(perfbench_add_target)
  add_executable(placer_bench "${PERFBENCH_DIR}/placer_bench.cpp")
  target_link_libraries(placer_bench PRIVATE ep_eplace ep_gen ep_bookshelf)
  # Build facts stamped into every result.
  target_compile_definitions(placer_bench PRIVATE
    PB_BUILD_TYPE="${CMAKE_BUILD_TYPE}" PB_MARCH="${EP_MARCH}")
endfunction()

cmake_language(DEFER CALL perfbench_add_target)
