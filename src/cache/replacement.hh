/**
 * @file
 * Replacement policies for set-associative caches.
 *
 * The paper's case study compares five LLC replacement policies:
 * LRU, RANDOM, FIFO, DIP (Qureshi et al., ISCA'07) and DRRIP (Jaleel
 * et al., ISCA'10). We implement those five plus several extras
 * (SRRIP, BRRIP, BIP, LIP, NRU, PLRU) that are useful for ablations.
 *
 * The set of policies is closed, so a cache holds its policy as a
 * ReplacementPolicy: a variant over the concrete, final policy
 * classes below. Its type is fixed when the cache is built, and
 * every hook dispatches through a switch on the variant index with
 * the policy's body inlined at the call site — no virtual call on
 * the access path.
 */

#ifndef WSEL_CACHE_REPLACEMENT_HH
#define WSEL_CACHE_REPLACEMENT_HH

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <variant>
#include <vector>

#include "stats/logging.hh"
#include "stats/rng.hh"

namespace wsel
{

/** Identifiers for the available replacement policies. */
enum class PolicyKind : std::uint8_t
{
    LRU,
    Random,
    FIFO,
    DIP,
    DRRIP,
    SRRIP,
    BRRIP,
    BIP,
    LIP,
    NRU,
    PLRU,
};

/** Short name ("LRU", "RND", "FIFO", "DIP", "DRRIP", ...). */
std::string toString(PolicyKind kind);

/** Parse a short name; fatal on unknown names. */
PolicyKind parsePolicyKind(const std::string &name);

/** The five policies evaluated in the paper, in paper order. */
const std::vector<PolicyKind> &paperPolicies();

/** Tunables for the set-dueling and RRIP policies (ablations). */
struct DuelingConfig
{
    /** One leader set per this many sets, per team. */
    std::uint32_t leaderSpacing = 32;
    /** PSEL counter width in bits. */
    std::uint32_t pselBits = 10;
    /** Bimodal throttle: 1-in-N MRU/long insertions. */
    std::uint32_t bimodalEpsilon = 32;
    /** Re-reference prediction value width of the RRIP family. */
    std::uint32_t rrpvBits = 2;
};

/**
 * Per-set recency stack; rank 0 is MRU, ways-1 is LRU. LRU, FIFO
 * and the DIP family all order their lines with it and differ only
 * in when they promote.
 */
class RankStack
{
  public:
    RankStack(std::uint32_t sets, std::uint32_t ways);

    /**
     * Promote @p way to rank 0. The rank row is adjusted eight ways
     * at a time with byte-parallel (SWAR) arithmetic: ranks are
     * < ways ≤ 127, so per-byte `x + (128 - old)` sets a byte's
     * high bit exactly when x >= old, with no inter-byte carry —
     * the complement, shifted down, is the per-byte increment.
     * Behaviour is identical to the scalar loop.
     */
    void
    touch(std::uint32_t set, std::uint32_t way)
    {
        std::uint8_t *r = &rank_[set * ways_];
        const std::uint8_t old = r[way];
        if (old == 0)
            return; // already MRU: nothing outranks it
        const std::uint64_t bias = (0x80ULL - old) * kLo;
        std::uint32_t w = 0;
        for (; w + 8 <= ways_; w += 8) {
            std::uint64_t x;
            std::memcpy(&x, r + w, 8);
            x += (~(x + bias) & kHi) >> 7;
            std::memcpy(r + w, &x, 8);
        }
        for (; w < ways_; ++w) {
            if (r[w] < old)
                ++r[w];
        }
        r[way] = 0;
    }

    /** Demote @p way to rank ways-1 (BIP-style insertion). */
    void
    demote(std::uint32_t set, std::uint32_t way)
    {
        std::uint8_t *r = &rank_[set * ways_];
        const std::uint8_t old = r[way];
        if (old == ways_ - 1)
            return; // already LRU
        // SWAR mirror of touch(): decrement every rank > old,
        // i.e. every byte with x >= old + 1.
        const std::uint64_t bias = (0x80ULL - (old + 1ULL)) * kLo;
        std::uint32_t w = 0;
        for (; w + 8 <= ways_; w += 8) {
            std::uint64_t x;
            std::memcpy(&x, r + w, 8);
            x -= ((x + bias) & kHi) >> 7;
            std::memcpy(r + w, &x, 8);
        }
        for (; w < ways_; ++w) {
            if (r[w] > old)
                --r[w];
        }
        r[way] = static_cast<std::uint8_t>(ways_ - 1);
    }

    /** The way at rank ways-1. */
    std::uint32_t
    bottom(std::uint32_t set) const
    {
        const std::uint8_t *r = &rank_[set * ways_];
        for (std::uint32_t w = 0; w < ways_; ++w) {
            if (r[w] == ways_ - 1)
                return w;
        }
        WSEL_PANIC("rank stack corrupted in set " << set);
    }

  private:
    static constexpr std::uint64_t kLo = 0x0101010101010101ULL;
    static constexpr std::uint64_t kHi = 0x8080808080808080ULL;

    std::uint32_t ways_;
    std::vector<std::uint8_t> rank_;
};

/** True LRU: hits and fills promote to MRU. */
class LruPolicy final
{
  public:
    LruPolicy(std::uint32_t sets, std::uint32_t ways)
        : ranks_(sets, ways)
    {}

    void
    onHit(std::uint32_t set, std::uint32_t way)
    {
        ranks_.touch(set, way);
    }

    void onMiss(std::uint32_t) {}

    void
    onFill(std::uint32_t set, std::uint32_t way)
    {
        ranks_.touch(set, way);
    }

    std::uint32_t
    selectVictim(std::uint32_t set)
    {
        return ranks_.bottom(set);
    }

    PolicyKind kind() const { return PolicyKind::LRU; }

  private:
    RankStack ranks_;
};

/** FIFO: LRU's stack promoted on fills only — hits do not refresh. */
class FifoPolicy final
{
  public:
    FifoPolicy(std::uint32_t sets, std::uint32_t ways)
        : ranks_(sets, ways)
    {}

    void onHit(std::uint32_t, std::uint32_t) {}
    void onMiss(std::uint32_t) {}

    void
    onFill(std::uint32_t set, std::uint32_t way)
    {
        ranks_.touch(set, way);
    }

    std::uint32_t
    selectVictim(std::uint32_t set)
    {
        return ranks_.bottom(set);
    }

    PolicyKind kind() const { return PolicyKind::FIFO; }

  private:
    RankStack ranks_;
};

/** Random replacement. */
class RandomPolicy final
{
  public:
    RandomPolicy(std::uint32_t ways, std::uint64_t seed)
        : ways_(ways), rng_(seed)
    {}

    void onHit(std::uint32_t, std::uint32_t) {}
    void onMiss(std::uint32_t) {}
    void onFill(std::uint32_t, std::uint32_t) {}

    std::uint32_t
    selectVictim(std::uint32_t)
    {
        return static_cast<std::uint32_t>(rng_.nextInt(ways_));
    }

    PolicyKind kind() const { return PolicyKind::Random; }

  private:
    std::uint32_t ways_;
    Rng rng_;
};

/** NRU: one reference bit per line. */
class NruPolicy final
{
  public:
    NruPolicy(std::uint32_t sets, std::uint32_t ways)
        : ways_(ways), ref_(static_cast<std::size_t>(sets) * ways, 0)
    {}

    void
    onHit(std::uint32_t set, std::uint32_t way)
    {
        ref_[set * ways_ + way] = 1;
    }

    void onMiss(std::uint32_t) {}

    void
    onFill(std::uint32_t set, std::uint32_t way)
    {
        ref_[set * ways_ + way] = 1;
    }

    std::uint32_t
    selectVictim(std::uint32_t set)
    {
        std::uint8_t *r = &ref_[set * ways_];
        for (std::uint32_t w = 0; w < ways_; ++w) {
            if (r[w] == 0)
                return w;
        }
        // All referenced: clear and evict way 0.
        std::fill(r, r + ways_, 0);
        return 0;
    }

    PolicyKind kind() const { return PolicyKind::NRU; }

  private:
    std::uint32_t ways_;
    std::vector<std::uint8_t> ref_;
};

/** Tree-PLRU; associativity must be a power of two. */
class PlruPolicy final
{
  public:
    PlruPolicy(std::uint32_t sets, std::uint32_t ways);

    void
    onHit(std::uint32_t set, std::uint32_t way)
    {
        touch(set, way);
    }

    void onMiss(std::uint32_t) {}

    void
    onFill(std::uint32_t set, std::uint32_t way)
    {
        touch(set, way);
    }

    std::uint32_t
    selectVictim(std::uint32_t set)
    {
        const std::uint8_t *b = &bits_[set * (ways_ - 1)];
        std::uint32_t node = 0;
        while (node < ways_ - 1)
            node = 2 * node + 1 + b[node];
        return node - (ways_ - 1);
    }

    PolicyKind kind() const { return PolicyKind::PLRU; }

  private:
    void
    touch(std::uint32_t set, std::uint32_t way)
    {
        std::uint8_t *b = &bits_[set * (ways_ - 1)];
        std::uint32_t node = way + (ways_ - 1);
        while (node != 0) {
            const std::uint32_t parent = (node - 1) / 2;
            // Point away from the accessed child.
            b[parent] = (node == 2 * parent + 1) ? 1 : 0;
            node = parent;
        }
    }

    std::uint32_t ways_;
    std::vector<std::uint8_t> bits_;
};

/**
 * LRU stack with configurable insertion: LIP inserts at LRU, BIP
 * inserts at MRU 1-in-epsilon fills, and DIP set-duels LRU
 * insertion against BIP insertion with a PSEL counter
 * (Qureshi et al., "Adaptive insertion policies for high
 * performance caching", ISCA 2007).
 */
class DipPolicy final
{
  public:
    /** @param kind DIP, BIP or LIP. */
    DipPolicy(PolicyKind kind, std::uint32_t sets, std::uint32_t ways,
              std::uint64_t seed, const DuelingConfig &cfg);

    void
    onHit(std::uint32_t set, std::uint32_t way)
    {
        ranks_.touch(set, way);
    }

    void
    onMiss(std::uint32_t set)
    {
        if (kind_ != PolicyKind::DIP)
            return;
        // A miss in a leader set is a strike against its team.
        if (isLruLeader(set))
            psel_ = std::min(psel_ + 1, pselMax_);
        else if (isBipLeader(set))
            psel_ = (psel_ > 0) ? psel_ - 1 : 0;
    }

    void
    onFill(std::uint32_t set, std::uint32_t way)
    {
        bool use_bip;
        if (kind_ != PolicyKind::DIP) {
            use_bip = true;
        } else if (isLruLeader(set)) {
            use_bip = false;
        } else if (isBipLeader(set)) {
            use_bip = true;
        } else {
            // Followers pick the team with fewer leader misses:
            // PSEL high means LRU missed more, so use BIP.
            use_bip = psel_ >= (1u << (cfg_.pselBits - 1));
        }
        if (!use_bip) {
            ranks_.touch(set, way); // MRU insertion (plain LRU)
            return;
        }
        // BIP: MRU insertion only 1 in bimodalEpsilon fills; LIP is
        // the epsilon -> infinity limit (never insert at MRU).
        if (kind_ != PolicyKind::LIP &&
            rng_.nextInt(cfg_.bimodalEpsilon) == 0)
            ranks_.touch(set, way);
        else
            ranks_.demote(set, way);
    }

    std::uint32_t
    selectVictim(std::uint32_t set)
    {
        return ranks_.bottom(set);
    }

    PolicyKind kind() const { return kind_; }

  private:
    bool
    isLruLeader(std::uint32_t set) const
    {
        return set % cfg_.leaderSpacing == 0;
    }

    bool
    isBipLeader(std::uint32_t set) const
    {
        return set % cfg_.leaderSpacing == cfg_.leaderSpacing / 2;
    }

    RankStack ranks_;
    Rng rng_;
    DuelingConfig cfg_;
    PolicyKind kind_;
    std::uint32_t pselMax_;
    std::uint32_t psel_;
};

/**
 * RRIP family (Jaleel et al., "High performance cache replacement
 * using re-reference interval prediction", ISCA 2010). SRRIP
 * inserts with a long re-reference prediction, BRRIP with a distant
 * one most of the time, and DRRIP set-duels between the two.
 */
class RripPolicy final
{
  public:
    /** @param kind SRRIP, BRRIP or DRRIP. */
    RripPolicy(PolicyKind kind, std::uint32_t sets,
               std::uint32_t ways, std::uint64_t seed,
               const DuelingConfig &cfg);

    void
    onHit(std::uint32_t set, std::uint32_t way)
    {
        // Hit promotion: predict near-immediate re-reference.
        rrpv_[set * ways_ + way] = 0;
    }

    void
    onMiss(std::uint32_t set)
    {
        if (kind_ != PolicyKind::DRRIP)
            return;
        if (isSrripLeader(set))
            psel_ = std::min(psel_ + 1, pselMax_);
        else if (isBrripLeader(set))
            psel_ = (psel_ > 0) ? psel_ - 1 : 0;
    }

    void
    onFill(std::uint32_t set, std::uint32_t way)
    {
        bool use_brrip;
        if (kind_ == PolicyKind::SRRIP)
            use_brrip = false;
        else if (kind_ == PolicyKind::BRRIP)
            use_brrip = true;
        else if (isSrripLeader(set))
            use_brrip = false;
        else if (isBrripLeader(set))
            use_brrip = true;
        else
            use_brrip = psel_ >= (1u << (cfg_.pselBits - 1));
        std::uint8_t ins;
        if (!use_brrip) {
            // SRRIP: long re-reference interval.
            ins = static_cast<std::uint8_t>(rrpvMax_ - 1);
        } else {
            // BRRIP: distant interval, long 1-in-epsilon fills.
            ins = (rng_.nextInt(cfg_.bimodalEpsilon) == 0)
                      ? static_cast<std::uint8_t>(rrpvMax_ - 1)
                      : static_cast<std::uint8_t>(rrpvMax_);
        }
        rrpv_[set * ways_ + way] = ins;
    }

    std::uint32_t
    selectVictim(std::uint32_t set)
    {
        std::uint8_t *r = &rrpv_[set * ways_];
        while (true) {
            for (std::uint32_t w = 0; w < ways_; ++w) {
                if (r[w] == rrpvMax_)
                    return w;
            }
            for (std::uint32_t w = 0; w < ways_; ++w)
                ++r[w];
        }
    }

    PolicyKind kind() const { return kind_; }

  private:
    bool
    isSrripLeader(std::uint32_t set) const
    {
        return set % cfg_.leaderSpacing == 0;
    }

    bool
    isBrripLeader(std::uint32_t set) const
    {
        return set % cfg_.leaderSpacing == cfg_.leaderSpacing / 2;
    }

    std::uint32_t ways_;
    Rng rng_;
    DuelingConfig cfg_;
    PolicyKind kind_;
    std::uint32_t rrpvMax_;
    std::vector<std::uint8_t> rrpv_;
    std::uint32_t pselMax_;
    std::uint32_t psel_;
};

/**
 * Replacement state for one cache instance: one of the concrete
 * policies above, chosen by makePolicy().
 *
 * The cache notifies the policy of hits, misses and fills, and asks
 * it for a victim way when a set is full.
 */
class ReplacementPolicy
{
  public:
    template <class P>
    explicit ReplacementPolicy(P policy) : impl_(std::move(policy))
    {}

    /** A lookup hit way @p way of set @p set. */
    void
    onHit(std::uint32_t set, std::uint32_t way)
    {
        std::visit([=](auto &p) { p.onHit(set, way); }, impl_);
    }

    /** A lookup missed in set @p set (before any fill). */
    void
    onMiss(std::uint32_t set)
    {
        std::visit([=](auto &p) { p.onMiss(set); }, impl_);
    }

    /** A new line was filled into way @p way of set @p set. */
    void
    onFill(std::uint32_t set, std::uint32_t way)
    {
        std::visit([=](auto &p) { p.onFill(set, way); }, impl_);
    }

    /**
     * Choose a victim way in a full set. Only called when every way
     * holds a valid line.
     */
    std::uint32_t
    selectVictim(std::uint32_t set)
    {
        return std::visit(
            [=](auto &p) { return p.selectVictim(set); }, impl_);
    }

    /** Policy identifier. */
    PolicyKind
    kind() const
    {
        return std::visit([](const auto &p) { return p.kind(); },
                          impl_);
    }

  private:
    std::variant<LruPolicy, RandomPolicy, FifoPolicy, DipPolicy,
                 RripPolicy, NruPolicy, PlruPolicy>
        impl_;
};

/**
 * Instantiate a policy.
 *
 * @param kind Which policy.
 * @param sets Number of sets in the cache.
 * @param ways Associativity.
 * @param seed Determinism seed for randomized policies.
 * @param cfg Dueling and RRIP tunables (defaults: the papers').
 */
ReplacementPolicy makePolicy(PolicyKind kind, std::uint32_t sets,
                             std::uint32_t ways, std::uint64_t seed,
                             const DuelingConfig &cfg = {});

} // namespace wsel

#endif // WSEL_CACHE_REPLACEMENT_HH
