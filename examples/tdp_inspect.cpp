// tdp_inspect: print an incident-engine flight-recorder dump ("TDPI") as
// JSON through obs::incident::decode_dump, the one decoder of the format.
// tools/tdp_triage.py renders that JSON as a triage report:
//
//   tdp_inspect incident_dump.tdpi | tools/tdp_triage.py - [--journal-jsonl J]
//
// Exits 1 with an "error: ..." line when the file cannot be read or does
// not decode, and 2 with usage on a wrong argument count.
#include <cstdio>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "obs/incident/incident.hpp"

int main(int argc, char** argv) {
  if (argc != 2) tdp::cli::exit_with_usage(argv[0], "<dump.tdpi>");
  try {
    std::ifstream in(argv[1], std::ios::binary);
    if (!in) throw std::runtime_error("cannot open the file");
    const std::vector<std::uint8_t> bytes{std::istreambuf_iterator<char>(in),
                                          std::istreambuf_iterator<char>()};
    const std::string json =
        tdp::obs::incident::dump_json(tdp::obs::incident::decode_dump(bytes));
    std::fputs(json.c_str(), stdout);
  } catch (const std::exception& error) {  // FormatError or an I/O failure
    std::fprintf(stderr, "error: %s: %s\n", argv[1], error.what());
    return 1;
  }
  return 0;
}
