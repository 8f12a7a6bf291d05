// Package ethselfish reproduces "Selfish Mining in Ethereum" (Jianyu Niu
// and Chen Feng, ICDCS 2019): a 2-D Markov analysis and an event-driven
// simulation of an Eyal-Sirer-style selfish-mining strategy under
// Ethereum's uncle and nephew rewards.
//
// The package is a facade over the full implementation:
//
//   - Analyze solves the closed-form model for one (alpha, gamma, schedule)
//     configuration and reports long-run revenues under both
//     difficulty-adjustment scenarios the paper studies.
//   - Simulate runs Algorithm 1 on a real block tree with a Poisson mining
//     race and settles rewards over the resulting chain.
//   - ProfitThreshold computes alpha*, the minimum hash-power share at
//     which deviating becomes profitable; BitcoinThreshold gives the
//     Eyal-Sirer baseline (1-gamma)/(3-2*gamma).
//
// Reward schedules are first-class: the Ethereum Byzantium schedule
// (Ku(l) = (8-l)/8, Kn = 1/32, depth <= 6), flat schedules (Fig. 9 and the
// Sec. VI redesign), and the degenerate Bitcoin schedule that reduces the
// model to Eyal and Sirer's analysis.
//
// The experiment harness regenerating every table and figure of the paper
// lives in cmd/ethselfish; see DESIGN.md for the experiment index and
// EXPERIMENTS.md for paper-vs-measured results.
//
// # K-pool races
//
// The simulator generalizes the paper's two-party race to K competing
// pools. Miners carry a pool label (mining.PoolID, 0 = honest); each pool
// mines a private branch over the shared block tree, runs its own
// sim.Strategy consulted only on its own race frame (Ls, Lh, published,
// measured from the pool's fork point), and honest miners follow the
// longest public branch, splitting the tie-break probability gamma across
// whichever published pool branches tie for the lead. Rewards settle
// per pool (sim.Result.ByPool); experiments.PoolWars sweeps an
// alpha1 x alpha2 grid of two Algorithm-1 pools plus heterogeneous
// attacker-vs-honest-control rows. The paper's setting is the K = 1
// special case and is bit-identical to the pre-generalization engine.
//
// # The strategy space
//
// Strategies form a parameterized space named by specs — strings of the
// grammar
//
//	name
//	name:key=value,key=value,...
//
// parsed by sim.ParseStrategySpec and constructed through a registry of
// sim.StrategyDefs (sim.RegisterStrategy adds new families; `ethselfish
// -list` enumerates the space with parameter ranges). The built-in space:
//
//	algorithm1                              the paper's Algorithm 1 (Sec. III-C)
//	honest                                  protocol-following control
//	eager-publish:lead=k                    commit as soon as the private lead reaches k (k >= 2)
//	stubborn:lead=L,fork=F,trail=T          the stubborn-mining family (Nayak et al.)
//
// The stubborn family composes three independent axes over Algorithm 1:
// lead=1 declines the sure win at Ls = Lh + 1 (publishes only up to Lh and
// races on), fork=1 keeps the tie-breaking block private instead of
// committing it, and trail=T keeps mining while behind by at most T blocks
// instead of adopting. The zero point of the family is exactly Algorithm 1.
// The legacy names "trail-stubborn" (= stubborn:lead=1) and
// "eager-publish-<k>" still parse as aliases.
//
// Every spec-built strategy passes the same validateReaction protocol gate
// as the hand-written ones: committing without a longer branch, publishing
// nonexistent blocks, or retracting announced blocks fails the run loudly.
// For the registry families this validation is a compile-time guarantee
// rather than a per-event check: the simulator compiles each pure strategy
// into a sim.DecisionTable whose every entry was validated when the table
// was built, so the hot loop performs no per-event reaction validation at
// all — a frame whose compiled reaction was rejected routes back to the
// live strategy call and fails exactly where it always did.
//
// On top of the registry, two engines explore the space at scale:
// experiments.Tournament plays every pair of specs as two equal-power
// competing pools over an alpha grid (per-pool relative-revenue matrix,
// round-robin scores), and experiments.BestResponse grid-searches the
// stubborn family per (alpha, gamma) point under Fig. 8's schedule,
// reporting the arg-max spec, the profitability thresholds, and the
// dominance region where a stubborn variant strictly beats Algorithm 1
// (empirically: high alpha with gamma >= 0.5, widening as gamma grows to 1;
// at gamma = 0 Algorithm 1 is the best response everywhere).
//
// # Absolute vs relative revenue: the time axis
//
// The block-count experiments measure relative revenue — the pool's share
// of settled rewards. A share above alpha is not yet profit: selfish
// mining discards work, so before the protocol reacts the pool earns fewer
// rewards per second than honest mining would, and the attack only starts
// to pay once difficulty adjustment compresses the time axis (Grunspan &
// Pérez-Marco, arXiv:1904.13330; Ritz & Zugenmaier, arXiv:1805.08832).
//
// sim.Config.Time enables a continuous-time axis over the same engine:
// block events arrive with exponential inter-arrival times at rate
// 1/difficulty, every block carries a timestamp (chain.Tree.TimeOf), and
// an optional difficulty.Controller closes the feedback loop inside the
// engine — every block the consensus floor settles is fed back with its
// real timestamp and its actually referenced uncles, counted off the tree.
// Three regimes: Static (constant difficulty), BitcoinStyle (uncle-blind
// epoch retargeting, pre-Byzantium), and EIP100 (per-block adjustment on
// the regular-plus-uncle rate, Byzantium). sim.Result reports elapsed and
// settled time, the difficulty trajectory, per-pool absolute reward rates
// (RateOf, rewards per unit time), and two windows of the settled chain —
// Early (before the first adjustment) and Steady (the converged chain
// above the floor reached at event Blocks/2) — whose comparison is exactly the profitability crossover
// experiments.Profitability sweeps over (alpha, gamma) x rule.
//
// The time axis is an overlay: it draws from a dedicated second RNG
// stream, so a timed run's block tree is bit-identical to the timeless run
// at the same seed, and the timeless path is pinned bit-for-bit against
// the pre-time engine. difficulty.PredictedRewardRate remains the
// closed-form steady-state oracle the engine loop is cross-validated
// against (the diffablation experiment).
//
// # Performance
//
// Paper-scale regeneration is embarrassingly parallel (10 independent runs
// at every grid point), and the implementation exploits that: sim.RunMany
// fans runs across a worker pool, and internal/experiments schedules every
// driver's (grid-point × run) work items on a shared engine. Both expose a
// Parallelism knob (default: one worker per CPU) that never changes
// results — per-run seeds are derived from the base seed alone and results
// are collected in run order, so parallel output is bit-identical to
// sequential.
//
// The simulator's per-event cost is O(1) in the population size (and O(K)
// in the pool count): miner draws go through a precomputed Walker alias
// table (one Uint64 plus one Float64 per event, whatever the number of
// miners) with dense pool-label lookups, state occupancy is a dense
// (Ls, Lh) grid increment per pool with a rare-overflow map, uncle
// candidates are tracked as one incrementally maintained fork-child set
// (visibility filtered per viewing pool) rather than rescanned, uncle
// eligibility walks only the race segment above the consensus floor
// (O(race depth), not O(reference window): a floor-anchored chain index —
// per-block "decided" and "referenced on the decided chain" bits, set as
// the floor advances — answers every test at or below the floor), strategy
// decisions resolve through compiled decision tables (sim.DecisionTable —
// one table load per event instead of interface dispatch plus validation,
// bit-identical to the live path),
// and reward settlement tallies into dense per-miner slices indexed by
// MinerID with the schedule's Ku/Kn pre-expanded into lookup tables. The hot path is
// also allocation-free in steady state — including across run restarts:
// each worker reuses one simulator (block tree, uncle arena, candidate
// window, per-pool branches and occupancy grids, scratch buffers) for
// every run it executes, resetting rather than re-allocating.
// cmd/ethbench holds the one registry of tracked workloads (go test -bench
// runs the same registry as BenchmarkWorkloads). It emits machine-readable
// benchmark results, a -baseline compare mode (gating ns/op, bytes/op, and
// allocs/op), a -record mode appending dated entries to the committed
// benchmark history, and -cpuprofile/-memprofile for pprof output.
//
// # Streaming settlement
//
// The engine has one settlement path, and it bounds the event loop's memory
// by the active race window instead of the run length, at any horizon. The
// contract:
//
//   - As the consensus floor advances, the decided prefix — every block at
//     or below floor height minus (uncle window + 1) — is folded into
//     dense per-miner reward tallies by an incremental chain.StreamSettler,
//     and the settled records are evicted from the block tree by
//     base-offset compaction (surviving chain.BlockIDs stay stable).
//   - Results are bit-identical to a one-shot chain.Tree.Settle walk over
//     the full tree: reward values are dyadic rationals well inside
//     float64's exact-integer range, so the per-miner sums are
//     order-independent. An oracle suite over every engine mode, a fuzz
//     property over random legal strategies, and the sampled conservation
//     audit (replayed against a cloned settler mid-run) pin this.
//   - Result.Steady starts at the midpoint floor: the consensus-floor
//     height when the run first reaches event Blocks/2. The boundary is
//     known before the settler passes it, so the window is tallied
//     exactly, in O(1) state, as blocks settle.
//   - sim.RunTrace is the one caller that keeps the whole tree: it turns
//     eviction off for its run, so its memory is O(Blocks).
//
// # Fast-forward and variance reduction
//
// Two opt-in accelerations trade bit-identical random streams for
// statistically identical results. sim.Config.FastForward collapses
// uneventful stretches analytically: at the race origin (every private
// branch empty, the public tip childless) each event is honest with
// probability 1-alpha and deterministically extends the tip, so the
// engine samples the stretch length in one Geometric(alpha) draw,
// bulk-appends the blocks (bulk-sampling the stretch duration as a
// Gamma(k) variate on the timed axis), and resumes event-by-event at the
// next selfish find — about a 2x speedup on 100k-block runs at small
// alpha. It engages only when every pool's strategy plainly adopts at the
// (0, 1, 0) frame (probed at init; otherwise the plain loop runs) and is
// rejected with feedback difficulty rules. Results agree with the plain
// engine in distribution — pinned by revenue, occupancy, and
// conservation-audit agreement tests — not bit-for-bit; each mode is
// bit-deterministic given (seed, mode), and the mode is part of every
// row's content address, so rows cached in one mode never serve the other.
//
// For sweep precision, internal/stats.Paired implements online
// control-variate estimation against the engine's closed-form oracles
// (the selfish event share has known mean alpha), and
// sim.Config.Antithetic mirrors every uniform draw for negatively
// correlated run pairs. experiments.Precision (CLI: `ethselfish
// precision`) runs the adaptive runs-to-target-CI study per (alpha,
// estimator) and reports realized radius, variance reduction factors, and
// projected run counts; cmd/ethbench's precision benches report the same
// as wall-clock time to a fixed target precision.
package ethselfish
