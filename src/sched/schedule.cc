#include "sched/schedule.h"

#include <sstream>
#include <stdexcept>

#include "analysis/sdf.h"

namespace sit::sched {

using runtime::FlatGraph;

Schedule make_schedule(const FlatGraph& g) {
  std::vector<analysis::Diagnostic> ds;
  std::optional<Schedule> s = analysis::solve_schedule(g, ds);
  if (!s) throw std::runtime_error(analysis::render(ds));
  return std::move(*s);
}

std::string Schedule::describe(const FlatGraph& g) const {
  std::ostringstream os;
  os << "steady-state repetitions:\n";
  for (std::size_t i = 0; i < reps.size(); ++i) {
    os << "  " << g.actors[i].name << ": " << reps[i];
    if (init_fires[i] > 0) os << " (+" << init_fires[i] << " init)";
    os << "\n";
  }
  os << "input/steady=" << input_per_steady
     << " output/steady=" << output_per_steady << "\n";
  return os.str();
}

}  // namespace sit::sched
