/**
 * @file
 * The reference loop (see bench.hh): a small fixed event loop over a
 * binary heap and a 256 KiB table, the kind of work the simulator's
 * event queue and models do. It is part of the benchmark, so a change
 * to the simulator leaves it alone.
 */

#include <functional>
#include <queue>
#include <utility>

#include "bench.hh"

namespace ifp::perfbench {

double
referenceLoop()
{
    constexpr std::uint32_t kMask = (1u << 16) - 1;
    static std::vector<std::uint32_t> table = [] {
        std::vector<std::uint32_t> t(kMask + 1);
        for (std::size_t i = 0; i < t.size(); ++i)
            t[i] = static_cast<std::uint32_t>(i * 2654435761u);
        return t;
    }();
    // Carried between calls so the loop cannot be folded away.
    static std::uint32_t carry = 0;

    using Event = std::pair<std::uint64_t, std::uint32_t>;
    std::priority_queue<Event, std::vector<Event>, std::greater<Event>> q;
    const Clock::time_point start = Clock::now();
    for (std::uint32_t i = 0; i < 512; ++i)
        q.push({i % 97, i});
    std::uint32_t x = carry;
    for (std::uint32_t i = 0; i < 4000; ++i) {
        const Event e = q.top();
        q.pop();
        x = table[(x ^ e.second) & kMask] + i;
        table[(x >> 7) & kMask] += e.second;
        q.push({e.first + 1 + (x & 63), x});
    }
    carry = x;
    return secondsSince(start);
}

void
Tally::runReference()
{
    referenceS.push_back(referenceLoop());
    referenceJob.push_back(jobMs.size());
    referenceCell.push_back(cellS.size());
}

} // namespace ifp::perfbench
