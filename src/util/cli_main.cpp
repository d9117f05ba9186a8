// The shared main() of the bench and example binaries (the fl_cli library).
// It runs the binary's fl_main and reports command-line misuse — a
// util::UsageError from Options — as "<program>: <message>" on stderr with
// exit status 2, the conventional usage-error status. Every other exception
// propagates unchanged.
#include <iostream>
#include <string>

#include "util/options.hpp"

int main(int argc, char** argv) {
  try {
    return fl_main(argc, argv);
  } catch (const fl::util::UsageError& e) {
    std::string program = argc > 0 ? argv[0] : "fl";
    program = program.substr(program.find_last_of('/') + 1);
    std::cerr << program << ": " << e.what() << '\n';
    return 2;
  }
}
