#include "core/bpred.hpp"

#include <stdexcept>

#include "common/bitops.hpp"

namespace hm {

BranchPredictor::BranchPredictor(BranchPredictorConfig cfg) : cfg_(cfg) {
  if (!is_pow2(cfg_.selector_entries) || !is_pow2(cfg_.gshare_entries) ||
      !is_pow2(cfg_.bimodal_entries) || !is_pow2(cfg_.btb_entries))
    throw std::invalid_argument("predictor table sizes must be powers of two");
  bimodal_.assign(cfg_.bimodal_entries, 2);   // weakly taken
  gshare_.assign(cfg_.gshare_entries, 2);
  selector_.assign(cfg_.selector_entries, 2); // weakly prefer gshare
  btb_.resize(cfg_.btb_entries);              // btb_entries slots, btb_ways per set
  ras_.assign(cfg_.ras_entries, 0);
}

std::size_t BranchPredictor::bimodal_index(Addr pc) const {
  return static_cast<std::size_t>((pc >> 2) & (cfg_.bimodal_entries - 1));
}

std::size_t BranchPredictor::gshare_index(Addr pc) const {
  const std::uint64_t hist = history_ & low_mask(cfg_.history_bits);
  return static_cast<std::size_t>(((pc >> 2) ^ hist) & (cfg_.gshare_entries - 1));
}

std::size_t BranchPredictor::selector_index(Addr pc) const {
  return static_cast<std::size_t>((pc >> 2) & (cfg_.selector_entries - 1));
}

BranchPredictor::Prediction BranchPredictor::predict(Addr pc) {
  ++stats_.predictions;
  Prediction p;
  const bool use_gshare = selector_[selector_index(pc)] >= 2;
  const std::uint8_t ctr = use_gshare ? gshare_[gshare_index(pc)] : bimodal_[bimodal_index(pc)];
  p.taken = ctr >= 2;

  // BTB: set-associative lookup for the target.
  const std::size_t sets = cfg_.btb_entries / cfg_.btb_ways;
  const std::size_t set = static_cast<std::size_t>((pc >> 2) & (sets - 1));
  for (unsigned w = 0; w < cfg_.btb_ways; ++w) {
    BtbEntry& e = btb_[set * cfg_.btb_ways + w];
    if (e.pc == pc) {
      p.btb_hit = true;
      p.target = e.target;
      ++stats_.btb_hits;
      break;
    }
  }
  return p;
}

bool BranchPredictor::update(Addr pc, bool taken, Addr target) {
  // Re-derive the prediction the frontend used (same tables, pre-update).
  const bool use_gshare = selector_[selector_index(pc)] >= 2;
  std::uint8_t& g = gshare_[gshare_index(pc)];
  std::uint8_t& b = bimodal_[bimodal_index(pc)];
  const bool g_pred = g >= 2;
  const bool b_pred = b >= 2;
  const bool predicted_taken = use_gshare ? g_pred : b_pred;

  bool target_ok = true;
  const std::size_t sets = cfg_.btb_entries / cfg_.btb_ways;
  const std::size_t set = static_cast<std::size_t>((pc >> 2) & (sets - 1));
  BtbEntry* hit = nullptr;
  BtbEntry* victim = &btb_[set * cfg_.btb_ways];
  for (unsigned w = 0; w < cfg_.btb_ways; ++w) {
    BtbEntry& e = btb_[set * cfg_.btb_ways + w];
    if (e.pc == pc) { hit = &e; break; }
    if (e.lru < victim->lru) victim = &e;
  }
  if (taken) {
    if (hit == nullptr) {
      target_ok = false;  // taken branch with no BTB target: frontend stalls
      victim->pc = pc;
      victim->target = target;
      victim->lru = ++btb_clock_;
    } else {
      target_ok = hit->target == target;
      hit->target = target;
      hit->lru = ++btb_clock_;
    }
  }

  // Train the direction tables and the selector.
  if (g_pred != b_pred) {
    std::uint8_t& sel = selector_[selector_index(pc)];
    if (g_pred == taken && sel < 3) ++sel;
    if (b_pred == taken && sel > 0) --sel;
  }
  train(g, taken);
  train(b, taken);
  history_ = (history_ << 1) | (taken ? 1u : 0u);

  const bool direction_ok = predicted_taken == taken;
  const bool correct = direction_ok && (!taken || target_ok);
  if (!direction_ok) ++stats_.direction_misses;
  if (taken && !target_ok) ++stats_.target_misses;
  if (!correct) ++stats_.mispredictions;
  return correct;
}

void BranchPredictor::ras_push(Addr return_addr) {
  if (ras_top_ == ras_.size()) {
    ++stats_.ras_overflows;
    // Overwrite the oldest entry (circular), as real RAS implementations do.
    for (std::size_t i = 1; i < ras_.size(); ++i) ras_[i - 1] = ras_[i];
    ras_top_ = ras_.size() - 1;
  }
  ras_[ras_top_++] = return_addr;
}

Addr BranchPredictor::ras_pop() {
  if (ras_top_ == 0) return 0;  // underflow predicts "unknown"
  return ras_[--ras_top_];
}

void BranchPredictor::reset() {
  bimodal_.assign(cfg_.bimodal_entries, 2);
  gshare_.assign(cfg_.gshare_entries, 2);
  selector_.assign(cfg_.selector_entries, 2);
  for (auto& e : btb_) e = BtbEntry{};
  ras_top_ = 0;
  history_ = 0;
}

}  // namespace hm
