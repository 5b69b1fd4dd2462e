#include "net/channel.h"

#include <algorithm>
#include <cmath>

namespace iobt::net {

bool ChannelModel::line_of_sight_blocked(sim::Vec2 a, sim::Vec2 b) const {
  for (const Building& bl : buildings_) {
    if (sim::segment_intersects_rect(a, b, bl.footprint)) return true;
  }
  return false;
}

double ChannelModel::loss_probability(sim::Vec2 a, const RadioProfile& ra, sim::Vec2 b,
                                      const RadioProfile& rb, sim::SimTime t) const {
  const double lim = std::min(ra.range_m, rb.range_m);
  const double d = sim::distance(a, b);
  if (d > lim) return 1.0;
  if (!buildings_.empty() && line_of_sight_blocked(a, b)) return 1.0;

  // Distance-dependent loss: base at d=0 rising to max_edge_loss at d=lim.
  // The shaping runs once per transmitted frame; the common exponents
  // bypass the libm pow call. A correctly-rounded pow returns exactly
  // frac for exponent 1 and exactly the rounded product frac*frac for
  // exponent 2, so the fast paths are bit-identical, not approximations.
  const double frac = lim > 0.0 ? d / lim : 0.0;
  const double shaped = edge_exponent_ == 2.0   ? frac * frac
                        : edge_exponent_ == 1.0 ? frac
                                                : std::pow(frac, edge_exponent_);
  double loss = ra.base_loss + (max_edge_loss_ - ra.base_loss) * shaped;

  // Jamming dominates when either endpoint is inside an active field.
  for (const Jammer& j : jammers_) {
    if (!j.active_at(t)) continue;
    if (j.covers(a) || j.covers(b)) loss = std::max(loss, j.induced_loss);
  }
  return std::clamp(loss, 0.0, 1.0);
}

}  // namespace iobt::net
