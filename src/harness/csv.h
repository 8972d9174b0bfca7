// CSV export of sweep results for offline plotting.
#pragma once

#include <string>
#include <vector>

#include "harness/trial.h"

namespace robustify::harness {

// Writes fault_rate plus, per series, success_pct / median_metric /
// mean_faulty_flops columns.  Series names are quoted (they contain commas,
// e.g. "SGD+AS,LS").  Throws std::runtime_error if the file cannot be
// written.
//
// With outcome_columns (opt-in so historical CSVs stay byte-identical),
// each series additionally gets wrong_pct / diverged_pct / budget_pct
// columns — the guarded executor's failure taxonomy.  Callers derive the
// flag from configuration (an active guard), never from the data, so a
// given config always produces the same schema.
void WriteSweepCsv(const std::string& path, const std::vector<Series>& series,
                   bool outcome_columns = false);

}  // namespace robustify::harness
