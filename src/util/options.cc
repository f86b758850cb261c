#include "src/util/options.h"

namespace clsm {

void Options::Sanitize() {
  // A fanout at or below 1 makes every deeper level permanently over
  // target (scores pinned at max, compaction never converges); anything
  // under 1.5 is close enough to that cliff that we treat it as a config
  // error and fall back to the default.
  if (!(level_size_multiplier >= 1.5)) level_size_multiplier = 10.0;

  // The byte-budget factors are multiples of target_file_size; zero or
  // negative would disable output files / expansion entirely in a way the
  // picker does not model, so reset to the LevelDB-equivalent defaults.
  if (!(max_grandparent_overlap_factor > 0.0)) max_grandparent_overlap_factor = 10.0;
  if (!(expanded_compaction_factor > 0.0)) expanded_compaction_factor = 25.0;
}

}  // namespace clsm
