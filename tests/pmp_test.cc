// Unit and property tests for the shared PMP semantics (src/pmp): encoding, WARL
// legalization, locking, range decoding, priority, and the access check.

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/common/state.h"
#include "src/pmp/pmp.h"

namespace vfm {
namespace {

PmpCfg MakeCfg(bool r, bool w, bool x, PmpAddrMode mode, bool locked = false) {
  PmpCfg cfg;
  cfg.r = r;
  cfg.w = w;
  cfg.x = x;
  cfg.a = mode;
  cfg.locked = locked;
  return cfg;
}

TEST(PmpCfgTest, ByteRoundTrip) {
  for (unsigned byte = 0; byte < 256; ++byte) {
    if ((byte & 0x60) != 0) {
      continue;  // reserved bits never materialize in stored cfg
    }
    const PmpCfg cfg = PmpCfg::FromByte(static_cast<uint8_t>(byte));
    EXPECT_EQ(cfg.ToByte(), byte);
  }
}

TEST(PmpCfgTest, Permits) {
  const PmpCfg rw = MakeCfg(true, true, false, PmpAddrMode::kNapot);
  EXPECT_TRUE(rw.Permits(AccessType::kLoad));
  EXPECT_TRUE(rw.Permits(AccessType::kStore));
  EXPECT_FALSE(rw.Permits(AccessType::kFetch));
}

TEST(PmpLegalizeTest, ReservedBitsCleared) {
  EXPECT_EQ(LegalizePmpCfgByte(0, 0xFF), 0x9F);
}

TEST(PmpLegalizeTest, WriteWithoutReadKeepsOld) {
  // W=1, R=0 is reserved: the write is dropped, preserving the previous byte.
  EXPECT_EQ(LegalizePmpCfgByte(0x19, 0x1A), 0x19);
  EXPECT_EQ(LegalizePmpCfgByte(0x00, 0x02), 0x00);
  // W=1 with R=1 is fine.
  EXPECT_EQ(LegalizePmpCfgByte(0x00, 0x03), 0x03);
}

TEST(PmpRangeTest, Napot) {
  // addr = base>>2 | (size/8 - 1): 0x8000_0000 + 64KiB.
  const uint64_t addr = (0x8000'0000 >> 2) | ((0x10000 >> 3) - 1);
  const auto range = DecodePmpRange(MakeCfg(true, false, false, PmpAddrMode::kNapot), addr, 0);
  ASSERT_TRUE(range.has_value());
  EXPECT_EQ(range->base, 0x8000'0000u);
  EXPECT_EQ(range->limit, 0x8001'0000u);
}

TEST(PmpRangeTest, Na4) {
  const auto range =
      DecodePmpRange(MakeCfg(true, false, false, PmpAddrMode::kNa4), 0x1000 >> 2, 0);
  ASSERT_TRUE(range.has_value());
  EXPECT_EQ(range->base, 0x1000u);
  EXPECT_EQ(range->limit, 0x1004u);
}

TEST(PmpRangeTest, TorUsesPreviousAddr) {
  const auto range = DecodePmpRange(MakeCfg(true, true, true, PmpAddrMode::kTor),
                                    0x2000 >> 2, 0x1000 >> 2);
  ASSERT_TRUE(range.has_value());
  EXPECT_EQ(range->base, 0x1000u);
  EXPECT_EQ(range->limit, 0x2000u);
}

TEST(PmpRangeTest, EmptyTorAndOff) {
  EXPECT_FALSE(DecodePmpRange(MakeCfg(true, true, true, PmpAddrMode::kTor), 0x1000 >> 2,
                              0x2000 >> 2)
                   .has_value());
  EXPECT_FALSE(DecodePmpRange(MakeCfg(true, true, true, PmpAddrMode::kOff), 123, 0)
                   .has_value());
}

class PmpBankTest : public ::testing::Test {
 protected:
  PmpBank bank_{8};

  void InstallNapot(unsigned entry, uint64_t base, uint64_t size, bool r, bool w, bool x,
                    bool locked = false) {
    bank_.SetCfg(entry, MakeCfg(r, w, x, PmpAddrMode::kNapot, locked));
    bank_.SetAddr(entry, (base >> 2) | ((size >> 3) - 1));
  }
};

TEST_F(PmpBankTest, NoMatchSemantics) {
  // With entries implemented but none matching: M allowed, S/U denied.
  EXPECT_TRUE(bank_.Check(0x8000'0000, 8, AccessType::kLoad, PrivMode::kMachine));
  EXPECT_FALSE(bank_.Check(0x8000'0000, 8, AccessType::kLoad, PrivMode::kSupervisor));
  EXPECT_FALSE(bank_.Check(0x8000'0000, 8, AccessType::kFetch, PrivMode::kUser));
}

TEST_F(PmpBankTest, PermissionsApplyToSU) {
  InstallNapot(0, 0x8000'0000, 0x1000, true, false, false);
  EXPECT_TRUE(bank_.Check(0x8000'0000, 8, AccessType::kLoad, PrivMode::kSupervisor));
  EXPECT_FALSE(bank_.Check(0x8000'0000, 8, AccessType::kStore, PrivMode::kSupervisor));
  EXPECT_FALSE(bank_.Check(0x8000'0000, 4, AccessType::kFetch, PrivMode::kUser));
}

TEST_F(PmpBankTest, UnlockedDoesNotConstrainMachine) {
  InstallNapot(0, 0x8000'0000, 0x1000, false, false, false);
  EXPECT_TRUE(bank_.Check(0x8000'0000, 8, AccessType::kStore, PrivMode::kMachine));
}

TEST_F(PmpBankTest, LockedConstrainsMachine) {
  InstallNapot(0, 0x8000'0000, 0x1000, true, false, false, /*locked=*/true);
  EXPECT_TRUE(bank_.Check(0x8000'0000, 8, AccessType::kLoad, PrivMode::kMachine));
  EXPECT_FALSE(bank_.Check(0x8000'0000, 8, AccessType::kStore, PrivMode::kMachine));
}

TEST_F(PmpBankTest, PriorityFirstMatchWins) {
  InstallNapot(0, 0x8000'0000, 0x1000, false, false, false);  // deny page
  InstallNapot(1, 0x8000'0000, 0x10000, true, true, true);    // allow region
  EXPECT_FALSE(bank_.Check(0x8000'0800, 8, AccessType::kLoad, PrivMode::kSupervisor));
  EXPECT_TRUE(bank_.Check(0x8000'1800, 8, AccessType::kLoad, PrivMode::kSupervisor));
}

TEST_F(PmpBankTest, PartialMatchDenies) {
  InstallNapot(0, 0x8000'0000, 0x1000, true, true, true);
  // An 8-byte access straddling the region end partially matches: denied, even for M.
  EXPECT_FALSE(bank_.Check(0x8000'0FFC, 8, AccessType::kLoad, PrivMode::kSupervisor));
  EXPECT_FALSE(bank_.Check(0x8000'0FFC, 8, AccessType::kLoad, PrivMode::kMachine));
}

TEST_F(PmpBankTest, CsrAccessorsComposeBytes) {
  bank_.WriteCfgReg(0, 0x0000'0000'0000'1F18ull);
  EXPECT_EQ(bank_.ReadCfgReg(0), 0x1F18u);
  EXPECT_EQ(bank_.GetCfg(0).a, PmpAddrMode::kNapot);
  EXPECT_FALSE(bank_.GetCfg(0).r);
  EXPECT_TRUE(bank_.GetCfg(1).r);
  EXPECT_TRUE(bank_.GetCfg(1).w);
  EXPECT_TRUE(bank_.GetCfg(1).x);
}

TEST_F(PmpBankTest, WriteCfgLegalizesEachByte) {
  // Byte 0 writes W-without-R: dropped. Byte 1 is valid.
  bank_.WriteCfgReg(0, 0x1F'1Aull);
  EXPECT_EQ(bank_.GetCfg(0).ToByte(), 0x00);
  EXPECT_EQ(bank_.GetCfg(1).ToByte(), 0x1F);
}

TEST_F(PmpBankTest, LockedEntryIgnoresWrites) {
  InstallNapot(2, 0x8000'0000, 0x1000, true, false, false, /*locked=*/true);
  const uint64_t addr_before = bank_.ReadAddrReg(2);
  bank_.WriteCfgReg(0, uint64_t{0x1F} << 16);  // try to rewrite entry 2's cfg
  bank_.WriteAddrReg(2, 0xFFFF);
  EXPECT_TRUE(bank_.GetCfg(2).locked);
  EXPECT_FALSE(bank_.GetCfg(2).w);
  EXPECT_EQ(bank_.ReadAddrReg(2), addr_before);
}

TEST_F(PmpBankTest, TorLockProtectsPreviousAddr) {
  bank_.SetCfg(3, MakeCfg(true, true, true, PmpAddrMode::kTor, /*locked=*/true));
  bank_.SetAddr(2, 0x1000 >> 2);
  bank_.WriteAddrReg(2, 0x9999);  // entry 3 is locked TOR: pmpaddr2 is frozen
  EXPECT_EQ(bank_.ReadAddrReg(2), 0x1000u >> 2);
}

TEST_F(PmpBankTest, OutOfRangeRegistersReadZeroIgnoreWrites) {
  PmpBank small(4);
  small.WriteAddrReg(7, 0x1234);
  EXPECT_EQ(small.ReadAddrReg(7), 0u);
  EXPECT_EQ(small.ReadCfgReg(2), 0u);  // entries 8..15 not implemented
}

TEST_F(PmpBankTest, FirstMatch) {
  InstallNapot(1, 0x8000'0000, 0x1000, true, true, true);
  InstallNapot(3, 0x8000'0000, 0x10000, true, true, true);
  EXPECT_EQ(bank_.FirstMatch(0x8000'0010).value_or(99), 1u);
  EXPECT_EQ(bank_.FirstMatch(0x8000'2000).value_or(99), 3u);
  EXPECT_FALSE(bank_.FirstMatch(0x4000'0000).has_value());
}

TEST_F(PmpBankTest, DescribeListsEntries) {
  InstallNapot(0, 0x8000'0000, 0x1000, true, false, true, true);
  const std::string description = bank_.Describe();
  EXPECT_NE(description.find("NAPOT"), std::string::npos);
  EXPECT_NE(description.find("LR-X"), std::string::npos);
}

// -- Content ids (PmpBank::generation()). --------------------------------------------

TEST_F(PmpBankTest, GenerationIsTheContentsId) {
  InstallNapot(0, 0x8000'0000, 0x1000, true, true, false);
  const uint64_t id_a = bank_.generation();
  EXPECT_NE(id_a, 0u);
  // Rewriting the same registers is not a new configuration.
  InstallNapot(0, 0x8000'0000, 0x1000, true, true, false);
  EXPECT_EQ(bank_.generation(), id_a);
  bank_.WriteCfgReg(0, bank_.ReadCfgReg(0));
  EXPECT_EQ(bank_.generation(), id_a);
  // A new configuration gets a fresh, larger id; returning to A gets A's back.
  InstallNapot(0, 0x8000'0000, 0x2000, true, true, false);
  const uint64_t id_b = bank_.generation();
  EXPECT_GT(id_b, id_a);
  InstallNapot(0, 0x8000'0000, 0x1000, true, true, false);
  EXPECT_EQ(bank_.generation(), id_a);
  InstallNapot(0, 0x8000'0000, 0x2000, true, true, false);
  EXPECT_EQ(bank_.generation(), id_b);
  // Ids are process-wide: another bank never reuses one, even for equal content.
  PmpBank other(8);
  other.SetCfg(0, bank_.GetCfg(0));
  other.SetAddr(0, bank_.GetAddr(0));
  EXPECT_GT(other.generation(), id_b);
}

TEST_F(PmpBankTest, EvictedConfigurationGetsAFreshId) {
  InstallNapot(0, 0x8000'0000, 0x1000, true, false, false);
  const uint64_t id_a = bank_.generation();
  uint64_t newest = id_a;
  for (unsigned i = 1; i <= PmpBank::kInternSlots; ++i) {
    InstallNapot(0, 0x8000'0000 + i * 0x1000, 0x1000, true, false, false);
    EXPECT_GT(bank_.generation(), newest);
    newest = bank_.generation();
  }
  InstallNapot(0, 0x8000'0000, 0x1000, true, false, false);
  EXPECT_GT(bank_.generation(), newest);
  EXPECT_TRUE(bank_.Check(0x8000'0000, 8, AccessType::kLoad, PrivMode::kSupervisor));
  EXPECT_FALSE(bank_.Check(0x8000'1000, 8, AccessType::kLoad, PrivMode::kSupervisor));
}

TEST_F(PmpBankTest, GenerationGrowsAcrossLoadState) {
  InstallNapot(0, 0x8000'0000, 0x1000, true, true, true);
  const uint64_t id_a = bank_.generation();
  StateWriter writer;
  bank_.SaveState(writer);
  InstallNapot(0, 0x8000'0000, 0x2000, true, true, true);
  const uint64_t id_b = bank_.generation();
  // Loading A's registers back does not resurrect A's id: loading forgets the
  // interned configurations, so no id names the content from before the load.
  StateReader reader(writer.bytes());
  ASSERT_TRUE(bank_.LoadState(reader));
  EXPECT_GT(bank_.generation(), id_b);
  EXPECT_NE(bank_.generation(), id_a);
  EXPECT_TRUE(bank_.Check(0x8000'0ff8, 8, AccessType::kStore, PrivMode::kUser));
  EXPECT_FALSE(bank_.Check(0x8000'1000, 8, AccessType::kStore, PrivMode::kUser));
}

// Property: the interned decoded ranges agree with a freshly decoded bank while the
// bank cycles through more configurations than it interns, so slots are reused,
// re-found and evicted.
TEST(PmpPropertyTest, InternedRangesAgreeAcrossRoundTrips) {
  Rng rng(0x1D5);
  constexpr unsigned kConfigs = PmpBank::kInternSlots + 4;
  uint64_t cfg_regs[kConfigs];
  uint64_t addrs[kConfigs][8];
  for (unsigned c = 0; c < kConfigs; ++c) {
    cfg_regs[c] = rng.NextAdversarial();
    for (uint64_t& addr : addrs[c]) {
      addr = rng.NextAdversarial();
    }
  }
  PmpBank bank(8);
  for (int iter = 0; iter < 2'000; ++iter) {
    const unsigned c = static_cast<unsigned>(rng.NextBelow(kConfigs));
    PmpBank fresh(8);
    for (PmpBank* target : {&bank, &fresh}) {
      for (unsigned i = 0; i < 8; ++i) {
        target->SetCfg(i, PmpCfg::FromByte(static_cast<uint8_t>(cfg_regs[c] >> (8 * i))));
        target->SetAddr(i, addrs[c][i]);
      }
    }
    for (int probe = 0; probe < 8; ++probe) {
      const uint64_t addr = rng.Next() & MaskLow(34);
      const unsigned size = 1u << rng.NextBelow(4);
      const AccessType type = static_cast<AccessType>(rng.NextBelow(3));
      const PrivMode mode = rng.Chance(1, 2) ? PrivMode::kMachine : PrivMode::kSupervisor;
      EXPECT_EQ(bank.Check(addr, size, type, mode), fresh.Check(addr, size, type, mode));
    }
  }
}

// Property: the decoded-range cache always agrees with a freshly decoded check,
// across interleaved mutations and queries.
TEST(PmpPropertyTest, CacheCoherenceUnderMutation) {
  Rng rng(0xCACE);
  PmpBank bank(8);
  for (int iter = 0; iter < 20'000; ++iter) {
    switch (rng.NextBelow(3)) {
      case 0:
        bank.WriteCfgReg(0, rng.NextAdversarial());
        break;
      case 1:
        bank.WriteAddrReg(static_cast<unsigned>(rng.NextBelow(8)), rng.NextAdversarial());
        break;
      default: {
        const uint64_t addr = rng.Next() & MaskLow(34);
        const unsigned size = 1u << rng.NextBelow(4);
        const AccessType type = static_cast<AccessType>(rng.NextBelow(3));
        const PrivMode mode =
            rng.Chance(1, 2) ? PrivMode::kMachine : PrivMode::kSupervisor;
        // Reference: re-decode from the raw registers.
        PmpBank fresh(8);
        for (unsigned i = 0; i < 8; ++i) {
          fresh.SetCfg(i, bank.GetCfg(i));
          fresh.SetAddr(i, bank.GetAddr(i));
        }
        EXPECT_EQ(bank.Check(addr, size, type, mode), fresh.Check(addr, size, type, mode));
        break;
      }
    }
  }
}

}  // namespace
}  // namespace vfm
