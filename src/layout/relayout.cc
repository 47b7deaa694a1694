#include "layout/relayout.h"

#include <algorithm>
#include <sstream>

#include "common/status.h"
#include "trace/probe.h"

namespace vtrans::layout {

namespace {

/** Union-find over chain ids with chain order bookkeeping. */
struct Chains
{
    // For each site: the chain it belongs to; chains are vectors of site
    // ids in placement order.
    std::vector<int> chain_of;
    std::vector<std::vector<uint32_t>> members;

    explicit Chains(size_t n) : chain_of(n)
    {
        members.resize(n);
        for (size_t i = 0; i < n; ++i) {
            chain_of[i] = static_cast<int>(i);
            members[i] = {static_cast<uint32_t>(i)};
        }
    }

    /** Merges b's chain onto the tail of a's chain if a ends its chain
     *  and b starts its own (classic Pettis-Hansen condition). */
    bool
    tryMerge(uint32_t a, uint32_t b)
    {
        const int ca = chain_of[a];
        const int cb = chain_of[b];
        if (ca == cb) {
            return false;
        }
        if (members[ca].back() != a || members[cb].front() != b) {
            return false;
        }
        for (uint32_t m : members[cb]) {
            chain_of[m] = ca;
        }
        members[ca].insert(members[ca].end(), members[cb].begin(),
                           members[cb].end());
        members[cb].clear();
        return true;
    }
};

} // namespace

RelayoutResult
applyProfileGuidedLayout(const ProfileCollector& profile,
                         const RelayoutOptions& options)
{
    const auto& registry = trace::registry();
    const auto& sites = registry.sites();
    const size_t n = sites.size();
    auto layout = std::make_shared<trace::CodeLayout>();
    layout->sites.resize(n);
    RelayoutResult result;
    result.layout = layout;
    result.span_before = registry.defaultSpan();

    auto execCount = [&](uint32_t id) -> uint64_t {
        return id < profile.sites().size()
                   ? profile.sites()[id].executions
                   : 0;
    };

    uint64_t hottest = 0;
    for (size_t i = 0; i < n; ++i) {
        hottest = std::max(hottest, execCount(static_cast<uint32_t>(i)));
    }
    const uint64_t cold_cutoff = static_cast<uint64_t>(
        static_cast<double>(hottest) * options.cold_fraction);

    // --- Pettis-Hansen chaining over the successor-affinity graph -----
    auto edges = profile.edges();
    std::sort(edges.begin(), edges.end(), [](const auto& a, const auto& b) {
        return std::get<2>(a) > std::get<2>(b);
    });

    Chains chains(n);
    for (const auto& [from, to, count] : edges) {
        if (count == 0 || from >= n || to >= n) {
            continue;
        }
        chains.tryMerge(from, to);
    }

    // Order chains by total heat, descending.
    struct ChainInfo
    {
        uint64_t heat = 0;
        const std::vector<uint32_t>* members = nullptr;
    };
    std::vector<ChainInfo> order;
    for (const auto& members : chains.members) {
        if (members.empty()) {
            continue;
        }
        ChainInfo info;
        info.members = &members;
        for (uint32_t m : members) {
            info.heat += execCount(m);
        }
        order.push_back(info);
    }
    std::sort(order.begin(), order.end(),
              [](const ChainInfo& a, const ChainInfo& b) {
                  return a.heat > b.heat;
              });

    // --- Placement: hot chains packed first, cold blocks after --------
    uint64_t addr = trace::SiteRegistry::kTextBase;
    auto place = [&](uint32_t id) {
        addr = (addr + options.block_align - 1)
               & ~static_cast<uint64_t>(options.block_align - 1);
        layout->sites[id].address = addr;
        addr += sites[id]->bytes;
    };

    std::vector<uint32_t> cold;
    for (const auto& info : order) {
        const bool is_cold = info.heat <= cold_cutoff;
        for (uint32_t m : *info.members) {
            if (is_cold) {
                cold.push_back(m);
            } else {
                place(m);
            }
        }
        if (!is_cold) {
            ++result.chains;
        }
    }
    result.hot_bytes = addr - trace::SiteRegistry::kTextBase;
    for (uint32_t m : cold) {
        place(m);
    }
    result.cold_bytes =
        addr - trace::SiteRegistry::kTextBase - result.hot_bytes;
    result.span_after = addr - trace::SiteRegistry::kTextBase;

    // --- Branch polarity: make the hot direction fall-through ---------
    for (size_t i = 0; i < n; ++i) {
        const trace::CodeSite& site = *sites[i];
        if (site.kind != trace::SiteKind::Branch
            && site.kind != trace::SiteKind::BranchLoadDep) {
            continue;
        }
        const SiteProfile& sp =
            i < profile.sites().size() ? profile.sites()[i] : SiteProfile{};
        const uint64_t total = sp.taken + sp.not_taken;
        if (total == 0) {
            continue;
        }
        const double taken_fraction =
            static_cast<double>(sp.taken) / static_cast<double>(total);
        if (taken_fraction > options.invert_threshold) {
            layout->sites[i].invert = true;
            ++result.inverted_branches;
        }
    }
    return result;
}

std::string
describe(const RelayoutResult& result)
{
    std::ostringstream os;
    os << "relayout: " << result.chains << " hot chains, "
       << result.hot_bytes << "B hot + " << result.cold_bytes
       << "B cold (span " << result.span_before << "B -> "
       << result.span_after << "B), " << result.inverted_branches
       << " branches inverted";
    return os.str();
}

} // namespace vtrans::layout
