package bench

import (
	"testing"

	"ityr"
	"ityr/internal/apps/halo"
	"ityr/internal/fault"
)

// The digests below were captured on the commit preceding the per-rank
// memory diet and the three-tier network model. They pin the promise those
// changes make: with the default two-tier topology (NodesPerRack unset)
// the simulated schedule — every timestamp, every RMA counter, every trace
// event — is bit-identical to what the repo produced before. A mismatch
// here means the refactor changed simulated behaviour, not just host cost.
//
// kernelDigest covers the fork-join path (cilksort at the Smoke scale,
// tracing on); the halo digests cover the pure-SPMD path at two geometries,
// including the 64-rank config the fleet benchmark replicates. Each config
// is also run sharded (HostProcs > 1) to pin that parallel host execution
// still reproduces the exact same pre-PR schedule.

var pinnedKernelDigests = map[string]string{
	"No Cache":          "elapsed=1072872 final=1155212 events=13515 fnv=f263a64ed20028ff",
	"Write-Through":     "elapsed=578327 final=661067 events=13769 fnv=65aac4844bbc1689",
	"Write-Back":        "elapsed=590386 final=673126 events=13607 fnv=0a73ab85caa57462",
	"Write-Back (Lazy)": "elapsed=597253 final=679993 events=13415 fnv=c0b23cefbbe25faa",
}

func TestPinnedKernelDigests(t *testing.T) {
	for _, pol := range ityr.Policies {
		want, ok := pinnedKernelDigests[pol.String()]
		if !ok {
			t.Fatalf("no pinned digest for policy %q — capture one and add it", pol)
		}
		if got := kernelDigest(t, Smoke, pol); got != want {
			t.Errorf("%s: kernel digest diverged from pre-diet capture:\n  pinned: %s\n  got:    %s",
				pol, want, got)
		}
	}
}

var pinnedHaloDigests = []struct {
	cfg  halo.Config
	want string
}{
	// The host-speedup sweep's halo geometry (hostperf.go).
	{halo.Config{Ranks: 32, CoresPerNode: 8, CellsPerRank: 4096, Steps: 50},
		"elapsed=1089091 checksum=40ef4c5200201dca fnv=6d217bb135526c09"},
	// The fleet benchmark's per-member geometry (scaling.go).
	{halo.Config{Ranks: 64, CoresPerNode: 8, CellsPerRank: 256, Steps: 20},
		"elapsed=335701 checksum=40be660f44097649 fnv=1df8cbae82d9ef9b"},
}

func TestPinnedHaloDigests(t *testing.T) {
	for _, tc := range pinnedHaloDigests {
		for _, procs := range []int{1, 4} {
			cfg := tc.cfg
			cfg.HostProcs = procs
			res, err := halo.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Digest(); got != tc.want {
				t.Errorf("halo %dx%d steps=%d procs=%d diverged from pre-diet capture:\n  pinned: %s\n  got:    %s",
					cfg.Ranks, cfg.CellsPerRank, cfg.Steps, procs, tc.want, got)
			}
		}
	}
}

// pinnedBranchDigests pin the scheduler's idle-loop branches across
// versions, not just run to run: the non-default policies, both victim
// selection knobs, the sharded host, every canned fault plan (with
// blacklisting, as faultDigest arms it) and the single-rank region that
// never steals. They were captured before the idle loop moved into the
// event kernel as an inline step; a mismatch means that move (or a later
// change) altered a simulated schedule.
var pinnedBranchDigests = []struct {
	name string
	cfg  func() ityr.Config
	want string
}{
	{"help-first", func() ityr.Config {
		cfg := smokeConfig()
		cfg.Sched.Policy = ityr.HelpFirst
		return cfg
	}, "elapsed=620418 final=703158 events=15604 fnv=b2ad9b4d8cea81ba"},
	{"fbc", func() ityr.Config {
		cfg := smokeConfig()
		cfg.Sched.Policy = ityr.FBC
		return cfg
	}, "elapsed=690298 final=773038 events=15812 fnv=3f6834f324a0f188"},
	{"locality-aware", func() ityr.Config {
		cfg := smokeConfig()
		cfg.Sched.LocalityAware = true
		return cfg
	}, "elapsed=481047 final=563787 events=13588 fnv=cf34ed23c8ad101e"},
	{"victim-blacklist", func() ityr.Config {
		cfg := smokeConfig()
		cfg.Sched.VictimBlacklist = true
		return cfg
	}, "elapsed=606044 final=688784 events=13419 fnv=12f59ff7bdacdca1"},
	{"host-procs-4", func() ityr.Config {
		cfg := smokeConfig()
		cfg.HostProcs = 4
		return cfg
	}, "elapsed=597253 final=679993 events=13415 fnv=c0b23cefbbe25faa"},
	{"link-degraded", func() ityr.Config { return blacklistPlanConfig(fault.PlanLinkDegraded(11)) }, "elapsed=824470 final=911786 events=13307 fnv=153f70b0b534e524"},
	{"flaky-rma", func() ityr.Config { return blacklistPlanConfig(fault.PlanFlakyRMA(11)) }, "elapsed=599706 final=688451 events=13462 fnv=a488e723e8b0b6a2"},
	{"straggler", func() ityr.Config { return blacklistPlanConfig(fault.PlanStraggler(11)) }, "elapsed=918610 final=1008010 events=13556 fnv=010ae1661ccf67db"},
	{"one-rank", func() ityr.Config {
		return runtimeConfig(1, Smoke.CoresPerNode, ityr.WriteBackLazy, 11)
	}, "elapsed=2282726 final=2321744 events=12564 fnv=a295c631a6a11550"},
}

// smokeConfig is the kernel-digest runtime config (Write-Back (Lazy)).
func smokeConfig() ityr.Config {
	return runtimeConfig(Smoke.FixedRanks, Smoke.CoresPerNode, ityr.WriteBackLazy, 11)
}

// blacklistPlanConfig is faultDigest's config for plan: blacklisting on.
func blacklistPlanConfig(plan fault.Plan) ityr.Config {
	cfg := smokeConfig()
	cfg.Faults = &plan
	cfg.Sched.VictimBlacklist = true
	return cfg
}

func TestPinnedBranchDigests(t *testing.T) {
	if n := len(fault.CannedPlans(11)); n != 3 {
		t.Fatalf("CannedPlans grew to %d plans; pin the new one here", n)
	}
	for _, tc := range pinnedBranchDigests {
		got := configDigest(t, tc.cfg(), Smoke.CilksortN, Smoke.Cutoffs[0])
		if got != tc.want {
			t.Errorf("%s: digest diverged from the pinned capture:\n  pinned: %s\n  got:    %s",
				tc.name, tc.want, got)
		}
	}
}
