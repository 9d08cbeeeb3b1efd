#include "cache/replacement.hh"

#include <algorithm>
#include <cstring>

#include "stats/logging.hh"

namespace wsel
{

std::string
toString(PolicyKind kind)
{
    switch (kind) {
      case PolicyKind::LRU:
        return "LRU";
      case PolicyKind::Random:
        return "RND";
      case PolicyKind::FIFO:
        return "FIFO";
      case PolicyKind::DIP:
        return "DIP";
      case PolicyKind::DRRIP:
        return "DRRIP";
      case PolicyKind::SRRIP:
        return "SRRIP";
      case PolicyKind::BRRIP:
        return "BRRIP";
      case PolicyKind::BIP:
        return "BIP";
      case PolicyKind::LIP:
        return "LIP";
      case PolicyKind::NRU:
        return "NRU";
      case PolicyKind::PLRU:
        return "PLRU";
    }
    WSEL_PANIC("invalid PolicyKind " << static_cast<int>(kind));
}

PolicyKind
parsePolicyKind(const std::string &name)
{
    static const std::vector<PolicyKind> all = {
        PolicyKind::LRU,   PolicyKind::Random, PolicyKind::FIFO,
        PolicyKind::DIP,   PolicyKind::DRRIP,  PolicyKind::SRRIP,
        PolicyKind::BRRIP, PolicyKind::BIP,    PolicyKind::LIP,
        PolicyKind::NRU,   PolicyKind::PLRU,
    };
    for (PolicyKind k : all) {
        if (toString(k) == name)
            return k;
    }
    if (name == "RANDOM")
        return PolicyKind::Random;
    WSEL_FATAL("unknown replacement policy '" << name << "'");
}

const std::vector<PolicyKind> &
paperPolicies()
{
    static const std::vector<PolicyKind> v = {
        PolicyKind::LRU, PolicyKind::Random, PolicyKind::FIFO,
        PolicyKind::DIP, PolicyKind::DRRIP,
    };
    return v;
}

RankStack::RankStack(std::uint32_t sets, std::uint32_t ways)
    : ways_(ways), rank_(static_cast<std::size_t>(sets) * ways)
{
    if (ways > 127)
        WSEL_FATAL("rank-stack policies support at most 127 ways, "
                   "got " << ways);
    // Every set starts with the same 0..ways-1 stack: write it once
    // and replicate with doubling copies (policies are constructed
    // per campaign cell, so this runs hot).
    for (std::uint32_t w = 0; w < ways; ++w)
        rank_[w] = static_cast<std::uint8_t>(w);
    const std::size_t total = rank_.size();
    for (std::size_t filled = ways; filled < total;) {
        const std::size_t chunk = std::min(filled, total - filled);
        std::memcpy(&rank_[filled], rank_.data(), chunk);
        filled += chunk;
    }
}

PlruPolicy::PlruPolicy(std::uint32_t sets, std::uint32_t ways)
    : ways_(ways)
{
    if ((ways & (ways - 1)) != 0)
        WSEL_FATAL("PLRU requires power-of-two associativity, got "
                   << ways);
    bits_.assign(static_cast<std::size_t>(sets) * (ways - 1), 0);
}

DipPolicy::DipPolicy(PolicyKind kind, std::uint32_t sets,
                     std::uint32_t ways, std::uint64_t seed,
                     const DuelingConfig &cfg)
    : ranks_(sets, ways), rng_(seed), cfg_(cfg), kind_(kind),
      pselMax_((1u << cfg.pselBits) - 1),
      psel_(1u << (cfg.pselBits - 1))
{
    WSEL_ASSERT(kind == PolicyKind::DIP || kind == PolicyKind::BIP ||
                    kind == PolicyKind::LIP,
                "not a DIP-family policy: " << toString(kind));
}

RripPolicy::RripPolicy(PolicyKind kind, std::uint32_t sets,
                       std::uint32_t ways, std::uint64_t seed,
                       const DuelingConfig &cfg)
    : ways_(ways), rng_(seed), cfg_(cfg), kind_(kind),
      rrpvMax_((1u << cfg.rrpvBits) - 1),
      rrpv_(static_cast<std::size_t>(sets) * ways,
            static_cast<std::uint8_t>(rrpvMax_)),
      pselMax_((1u << cfg.pselBits) - 1),
      psel_(1u << (cfg.pselBits - 1))
{
    WSEL_ASSERT(kind == PolicyKind::SRRIP ||
                    kind == PolicyKind::BRRIP ||
                    kind == PolicyKind::DRRIP,
                "not an RRIP-family policy: " << toString(kind));
    if (cfg.rrpvBits == 0 || cfg.rrpvBits > 8)
        WSEL_FATAL("RRIP rrpv_bits must be in [1, 8], got "
                   << cfg.rrpvBits);
}

ReplacementPolicy
makePolicy(PolicyKind kind, std::uint32_t sets, std::uint32_t ways,
           std::uint64_t seed, const DuelingConfig &cfg)
{
    if (sets == 0 || ways == 0 || ways > 255)
        WSEL_FATAL("bad cache geometry: " << sets << " sets x "
                                          << ways << " ways");
    switch (kind) {
      case PolicyKind::LRU:
        return ReplacementPolicy(LruPolicy(sets, ways));
      case PolicyKind::Random:
        return ReplacementPolicy(RandomPolicy(ways, seed));
      case PolicyKind::FIFO:
        return ReplacementPolicy(FifoPolicy(sets, ways));
      case PolicyKind::DIP:
      case PolicyKind::BIP:
      case PolicyKind::LIP:
        // LIP is the LRU-insertion policy (Qureshi et al.): every
        // fill lands at the LRU position; hits promote normally.
        return ReplacementPolicy(
            DipPolicy(kind, sets, ways, seed, cfg));
      case PolicyKind::DRRIP:
      case PolicyKind::SRRIP:
      case PolicyKind::BRRIP:
        return ReplacementPolicy(
            RripPolicy(kind, sets, ways, seed, cfg));
      case PolicyKind::NRU:
        return ReplacementPolicy(NruPolicy(sets, ways));
      case PolicyKind::PLRU:
        return ReplacementPolicy(PlruPolicy(sets, ways));
    }
    WSEL_PANIC("invalid PolicyKind " << static_cast<int>(kind));
}

} // namespace wsel
