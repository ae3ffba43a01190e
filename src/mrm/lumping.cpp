#include "mrm/lumping.hpp"

#include <algorithm>
#include <bit>
#include <map>
#include <span>
#include <string>
#include <utility>

#include "obs/obs.hpp"
#include "util/env.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/thread_pool.hpp"

namespace csrl {

namespace {

/// One outflow of a state under the current partition: the reached block,
/// the impulse carried by the arc(s), and their summed rate.  Signatures
/// are slices of a flat arena sized by the rate matrix's row extents, so
/// the parallel signing pass writes disjoint memory without coordination.
struct SigEntry {
  std::size_t block;
  double impulse;
  double rate;
};

inline bool sig_entry_less(const SigEntry& a, const SigEntry& b) {
  if (a.block != b.block) return a.block < b.block;
  if (a.impulse != b.impulse) return a.impulse < b.impulse;
  // Rates only tie-break duplicates of one (block, impulse) key before
  // compaction, fixing the floating-point summation order independently
  // of the column order — part of the determinism argument (DESIGN.md
  // section 3j).
  return a.rate < b.rate;
}

/// The refiner's parallel kernel: compute the outflow signatures of the
/// states worklist[begin..end) against the current partition.  Each state
/// gathers (block_of[col], impulse, rate) triples into its own arena
/// slice, sorts them, compacts equal (block, impulse) keys by summing
/// rates in sorted order, and records the compacted length and an FNV-1a
/// hash.  Pure per-state work into disjoint slots: no shared mutable
/// state, hence no locks and bitwise-identical output at any thread
/// count.  Registered as a hot root with scripts/analyze — keep it free
/// of allocation, locking, throwing and IO.
void sign_states(const CsrMatrix& rates, const CsrMatrix* impulses,
                 const std::vector<std::size_t>& block_of,
                 const std::vector<std::size_t>& worklist, std::size_t begin,
                 std::size_t end, const std::vector<std::size_t>& offsets,
                 SigEntry* entries, std::size_t* sig_len,
                 std::uint64_t* sig_hash) {
  for (std::size_t i = begin; i < end; ++i) {
    const std::size_t s = worklist[i];
    const std::span<const CsrEntry> row = rates.row_unchecked(s);
    SigEntry* const slice = entries + offsets[s];
    std::size_t k = 0;
    if (impulses == nullptr) {
      for (const CsrEntry& e : row) {
        slice[k].block = block_of[e.col];
        slice[k].impulse = 0.0;
        slice[k].rate = e.value;
        ++k;
      }
    } else {
      // Merge-walk the impulse row in lockstep with the rate row: both
      // are column-sorted, and every impulse sits on a positive-rate arc.
      const std::span<const CsrEntry> irow = impulses->row_unchecked(s);
      std::size_t j = 0;
      for (const CsrEntry& e : row) {
        while (j < irow.size() && irow[j].col < e.col) ++j;
        const bool hit = j < irow.size() && irow[j].col == e.col;
        slice[k].block = block_of[e.col];
        slice[k].impulse = hit ? irow[j].value : 0.0;
        slice[k].rate = e.value;
        ++k;
      }
    }
    std::sort(slice, slice + k, sig_entry_less);
    std::size_t m = 0;
    for (std::size_t a = 0; a < k;) {
      std::size_t b = a + 1;
      double sum = slice[a].rate;
      while (b < k && slice[b].block == slice[a].block &&
             slice[b].impulse == slice[a].impulse) {
        sum += slice[b].rate;
        ++b;
      }
      slice[m].block = slice[a].block;
      slice[m].impulse = slice[a].impulse;
      slice[m].rate = sum;
      ++m;
      a = b;
    }
    sig_len[s] = m;
    std::uint64_t h = hashing::kOffset;
    for (std::size_t a = 0; a < m; ++a) {
      h = hashing::mix(h, static_cast<std::uint64_t>(slice[a].block));
      h = hashing::mix(h, slice[a].impulse);
      h = hashing::mix(h, slice[a].rate);
    }
    sig_hash[s] = h;
  }
}

/// Exact signature comparison behind the hash prefilter — hash equality
/// alone must never merge states (collision soundness).
bool signatures_equal(const SigEntry* a, const SigEntry* b, std::size_t len) {
  for (std::size_t i = 0; i < len; ++i) {
    if (a[i].block != b[i].block || a[i].impulse != b[i].impulse ||
        a[i].rate != b[i].rate)
      return false;
  }
  return true;
}

}  // namespace

bool resolve_lump(std::optional<bool> requested) noexcept {
  if (requested.has_value()) return *requested;
  return env_uint("CSRL_LUMP", 0, 1, 0) == 1;
}

LumpingResult lump(const Mrm& model) {
  const WallTimer timer;
  const std::size_t n = model.num_states();
  LumpingResult result;
  result.block_of.assign(n, 0);
  if (n == 0) {
    result.quotient = model;
    return result;
  }
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::vector<std::size_t>& block_of = result.block_of;
  std::size_t num_blocks = 1;

  // Initial partition: states agreeing on labels and reward rate.  Split
  // by one proposition at a time (exact, no label-vector hashing); within
  // each block the side of the first member keeps the block id, the other
  // side gets a fresh id — deterministic by state order.
  for (const std::string& ap : model.labelling().propositions()) {
    const StateSet& holders = model.labelling().states_with(ap);
    std::vector<std::uint8_t> seen(num_blocks, 0);  // 0 unseen, 1 out, 2 in
    std::vector<std::size_t> other(num_blocks, kNone);
    const std::size_t old_blocks = num_blocks;
    for (std::size_t s = 0; s < n; ++s) {
      const std::size_t b = block_of[s];
      if (b >= old_blocks) continue;  // unreachable; guards the invariant
      const bool in = holders.contains(s);
      if (seen[b] == 0) {
        seen[b] = in ? 2 : 1;
        continue;
      }
      if (in != (seen[b] == 2)) {
        if (other[b] == kNone) other[b] = num_blocks++;
        block_of[s] = other[b];
      }
    }
  }
  {
    // Multiway split by reward rate: first-seen value per block keeps the
    // id, later values append in first-occurrence order.
    std::map<std::pair<std::size_t, std::uint64_t>, std::size_t> index;
    std::vector<std::uint8_t> seen(num_blocks, 0);
    const std::size_t old_blocks = num_blocks;
    for (std::size_t s = 0; s < n; ++s) {
      const std::size_t b = block_of[s];
      if (b >= old_blocks) continue;
      const auto key =
          std::make_pair(b, std::bit_cast<std::uint64_t>(model.reward(s)));
      const auto it = index.find(key);
      if (it != index.end()) {
        block_of[s] = it->second;
        continue;
      }
      if (seen[b] == 0) {
        seen[b] = 1;
        index.emplace(key, b);
      } else {
        index.emplace(key, num_blocks);
        block_of[s] = num_blocks++;
      }
    }
  }

  // Refinement state: member lists per block (kept in ascending state
  // order, so front() is the minimal representative), the flat signature
  // arena indexed by the rate matrix's row extents, and the transposed
  // rates for predecessor-driven dirtying.
  const CsrMatrix& rates = model.rates();
  const CsrMatrix* impulses =
      model.has_impulse_rewards() ? &model.impulse_rewards() : nullptr;
  const CsrMatrix transpose = rates.transposed();

  std::vector<std::vector<std::size_t>> members(num_blocks);
  for (std::size_t s = 0; s < n; ++s) members[block_of[s]].push_back(s);

  std::vector<std::size_t> offsets(n + 1, 0);
  for (std::size_t s = 0; s < n; ++s)
    offsets[s + 1] = offsets[s] + rates.row_unchecked(s).size();
  std::vector<SigEntry> entries(offsets[n]);
  std::vector<std::size_t> sig_len(n, 0);
  std::vector<std::uint64_t> sig_hash(n, 0);

  const auto sign_worklist = [&](const std::vector<std::size_t>& worklist) {
    parallel_for(0, worklist.size(), /*grain=*/64,
                 [&](std::size_t lo, std::size_t hi) {
                   sign_states(rates, impulses, block_of, worklist, lo, hi,
                               offsets, entries.data(), sig_len.data(),
                               sig_hash.data());
                 });
  };

  LumpingStats& stats = result.stats;
  std::vector<std::size_t> dirty_blocks;
  dirty_blocks.reserve(num_blocks);
  for (std::size_t b = 0; b < num_blocks; ++b)
    if (members[b].size() > 1) dirty_blocks.push_back(b);

  std::vector<std::size_t> worklist;
  std::vector<std::size_t> moved;
  std::vector<std::size_t> group_of;   // per member of the block in hand
  std::vector<std::size_t> group_rep;  // exemplar state per group
  std::vector<std::size_t> group_id;   // block id per group

  while (!dirty_blocks.empty()) {
    ++stats.sweeps;
    // Re-sign every member of every dirty block against the current
    // partition, in parallel.  Singleton blocks never split and are kept
    // off the worklist; the quotient pass below re-signs representatives
    // against the final partition anyway.
    worklist.clear();
    for (const std::size_t b : dirty_blocks)
      worklist.insert(worklist.end(), members[b].begin(), members[b].end());
    sign_worklist(worklist);
    stats.states_resigned += worklist.size();
    for (const std::size_t s : worklist)
      stats.signature_entries += offsets[s + 1] - offsets[s];

    // Split sequentially in ascending block order: the group of the first
    // member keeps the block id, later groups take fresh ids in
    // first-occurrence order.  All decisions follow state order, so the
    // numbering never depends on the thread count.
    moved.clear();
    for (const std::size_t b : dirty_blocks) {
      std::vector<std::size_t> mem = std::move(members[b]);
      group_rep.clear();
      group_id.clear();
      group_of.assign(mem.size(), 0);
      group_rep.push_back(mem.front());
      group_id.push_back(b);
      for (std::size_t i = 1; i < mem.size(); ++i) {
        const std::size_t s = mem[i];
        std::size_t g = kNone;
        for (std::size_t c = 0; c < group_rep.size(); ++c) {
          const std::size_t r = group_rep[c];
          if (sig_hash[s] == sig_hash[r] && sig_len[s] == sig_len[r] &&
              signatures_equal(entries.data() + offsets[s],
                               entries.data() + offsets[r], sig_len[s])) {
            g = c;
            break;
          }
        }
        if (g == kNone) {
          g = group_rep.size();
          group_rep.push_back(s);
          group_id.push_back(num_blocks++);
          ++stats.splits;
        }
        group_of[i] = g;
      }
      if (group_rep.size() == 1) {
        members[b] = std::move(mem);
        continue;
      }
      std::vector<std::vector<std::size_t>> lists(group_rep.size());
      for (std::size_t i = 0; i < mem.size(); ++i)
        lists[group_of[i]].push_back(mem[i]);
      for (std::size_t i = 0; i < mem.size(); ++i) {
        if (group_of[i] == 0) continue;
        block_of[mem[i]] = group_id[group_of[i]];
        moved.push_back(mem[i]);
      }
      members[b] = std::move(lists.front());
      for (std::size_t g = 1; g < lists.size(); ++g)
        members.push_back(std::move(lists[g]));  // index == group_id[g]
    }

    // Next worklist: a state's signature can only change when one of its
    // successors changed block, so dirty exactly the blocks holding a
    // predecessor of a moved state.
    std::vector<std::uint8_t> dirty(num_blocks, 0);
    for (const std::size_t u : moved)
      for (const CsrEntry& e : transpose.row_unchecked(u))
        dirty[block_of[e.col]] = 1;
    dirty_blocks.clear();
    for (std::size_t b = 0; b < num_blocks; ++b)
      if (dirty[b] != 0 && members[b].size() > 1) dirty_blocks.push_back(b);
  }
  result.num_blocks = num_blocks;

  // Build the quotient from one representative per block (lumpability
  // guarantees representative-independence of everything we read off).
  // One more parallel pass signs the representatives against the *final*
  // partition — stored signatures may predate later splits.
  worklist.clear();
  worklist.reserve(num_blocks);
  for (std::size_t b = 0; b < num_blocks; ++b)
    worklist.push_back(members[b].front());
  sign_worklist(worklist);

  CsrBuilder quotient_rates(num_blocks, num_blocks);
  CsrBuilder quotient_impulses(num_blocks, num_blocks);
  bool any_impulse = false;
  std::vector<double> rewards(num_blocks, 0.0);
  Labelling labelling(num_blocks);
  std::vector<double> initial(num_blocks, 0.0);

  for (std::size_t b = 0; b < num_blocks; ++b) {
    const std::size_t rep = members[b].front();
    rewards[b] = model.reward(rep);
    for (const std::string& ap : model.labelling().labels_of(rep))
      labelling.add_label(b, ap);

    const SigEntry* const slice = entries.data() + offsets[rep];
    const std::size_t len = sig_len[rep];
    // Equal (block, impulse) keys were merged, so adjacent entries into
    // one block witness arcs with distinct impulses — unrepresentable by
    // a single quotient arc.
    for (std::size_t i = 0; i + 1 < len; ++i) {
      if (slice[i].block == slice[i + 1].block)
        throw ModelError(
            "lump: state " + std::to_string(rep) +
            " has transitions with different impulse rewards into one "
            "block; the quotient cannot represent them exactly");
    }
    for (std::size_t i = 0; i < len; ++i) {
      quotient_rates.add(b, slice[i].block, slice[i].rate);
      if (slice[i].impulse > 0.0) {
        quotient_impulses.add(b, slice[i].block, slice[i].impulse);
        any_impulse = true;
      }
    }
  }
  // Preserve propositions that exist but hold nowhere.
  for (const std::string& ap : model.labelling().propositions())
    labelling.add_proposition(ap);

  for (std::size_t s = 0; s < n; ++s)
    initial[block_of[s]] += model.initial_distribution()[s];

  result.quotient = Mrm(Ctmc(quotient_rates.build()), std::move(rewards),
                        std::move(labelling), std::move(initial));
  if (any_impulse)
    result.quotient = result.quotient.with_impulses(quotient_impulses.build());

  stats.wall_seconds = timer.seconds();
  CSRL_COUNT("lump/runs", 1);
  CSRL_COUNT("lump/sweeps", stats.sweeps);
  CSRL_COUNT("lump/splits", stats.splits);
  CSRL_COUNT("lump/states_resigned", stats.states_resigned);
  CSRL_COUNT("lump/signature_entries", stats.signature_entries);
  return result;
}

}  // namespace csrl
