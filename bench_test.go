package ixplight

// The benchmark harness regenerates every table and figure of the
// paper's evaluation (see DESIGN.md §4 for the experiment index).
// Each BenchmarkTableN/BenchmarkFigureN target measures the full
// computation of that artifact over a calibrated synthetic workload;
// the printed metrics (b.ReportMetric) carry the headline values so a
// -bench run doubles as a reproduction report. BenchmarkAblation_*
// targets measure the design alternatives DESIGN.md §5 calls out.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// Regenerate one artifact with paper-shaped output instead:
//
//	go run ./cmd/analyze -exp fig5

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"

	"ixplight/internal/analysis"
	"ixplight/internal/bgp"
	"ixplight/internal/collector"
	"ixplight/internal/dictionary"
	"ixplight/internal/ixpgen"
	"ixplight/internal/mrt"
	"ixplight/internal/report"
	"ixplight/internal/rs"
	"ixplight/internal/rsconfig"
	"ixplight/internal/sanitize"
	"ixplight/internal/webdocs"
)

const (
	benchSeed  = 42
	benchScale = 0.02
)

var (
	benchOnce sync.Once
	benchLab  *report.Lab
)

// lab lazily generates the shared four-IXP workload.
func lab(b *testing.B) *report.Lab {
	b.Helper()
	benchOnce.Do(func() {
		l, err := report.NewLab(ixpgen.BigFour(), benchSeed, benchScale)
		if err != nil {
			panic(err)
		}
		benchLab = l
	})
	return benchLab
}

func benchSnapshot(b *testing.B, ixp string) (*collector.Snapshot, *dictionary.Scheme) {
	l := lab(b)
	return l.Snapshots[ixp], dictionary.ProfileByName(ixp)
}

// BenchmarkTable1_IXPNumbers regenerates Table 1: per-IXP members,
// prefixes and routes for both families.
func BenchmarkTable1_IXPNumbers(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range l.Profiles {
			s := l.Snapshots[p.IXP]
			_ = report.Table1RowFromSnapshot(s, p.Location, p.AvgTraffic, p.TotalMembers)
		}
	}
}

// BenchmarkFigure1_DefinedVsUnknown regenerates Fig. 1 (IXP-defined vs
// unknown community shares) and reports DE-CIX's v4 defined share.
func BenchmarkFigure1_DefinedVsUnknown(b *testing.B) {
	l := lab(b)
	var last float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range l.Profiles {
			s := l.Snapshots[p.IXP]
			m4 := analysis.ComputeMix(s, p.Scheme, false)
			_ = analysis.ComputeMix(s, p.Scheme, true)
			if p.IXP == "DE-CIX" {
				last = m4.DefinedShare()
			}
		}
	}
	b.ReportMetric(100*last, "defined_%")
}

// BenchmarkFigure2_TypeMix regenerates Fig. 2 (standard vs extended vs
// large) and reports DE-CIX's v4 standard share.
func BenchmarkFigure2_TypeMix(b *testing.B) {
	l := lab(b)
	var last float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range l.Profiles {
			m4 := analysis.ComputeMix(l.Snapshots[p.IXP], p.Scheme, false)
			if p.IXP == "DE-CIX" {
				last = m4.StandardShare()
			}
		}
	}
	b.ReportMetric(100*last, "standard_%")
}

// BenchmarkFigure3_ActionVsInfo regenerates Fig. 3 (action vs
// informational split of the IXP-defined standard communities).
func BenchmarkFigure3_ActionVsInfo(b *testing.B) {
	l := lab(b)
	var last float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range l.Profiles {
			s := l.Snapshots[p.IXP]
			last = analysis.ActionShare(s, p.Scheme, false)
			_ = analysis.ActionShare(s, p.Scheme, true)
		}
	}
	b.ReportMetric(100*last, "action_%")
}

// BenchmarkFigure4a_ASesUsingActions regenerates Fig. 4a (ASes and
// routes using action communities).
func BenchmarkFigure4a_ASesUsingActions(b *testing.B) {
	l := lab(b)
	var last analysis.Usage
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range l.Profiles {
			s := l.Snapshots[p.IXP]
			last = analysis.ComputeUsage(s, p.Scheme, false)
			_ = analysis.ComputeUsage(s, p.Scheme, true)
		}
	}
	b.ReportMetric(100*last.ASShare(), "as_share_%")
	b.ReportMetric(100*last.RouteShare(), "route_share_%")
}

// BenchmarkFigure4b_UsageCDF regenerates Fig. 4b (usage concentration)
// and reports the top-5% share at IX.br-SP.
func BenchmarkFigure4b_UsageCDF(b *testing.B) {
	s, scheme := benchSnapshot(b, "IX.br-SP")
	var top float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		counts := analysis.PerASActionCounts(s, scheme, false)
		u := analysis.ComputeUsage(s, scheme, false)
		cdf := analysis.ConcentrationCDF(counts, u.MembersAtRS)
		top = analysis.TopShare(cdf, 0.05)
	}
	b.ReportMetric(100*top, "top5%_share_%")
}

// BenchmarkFigure4c_Correlation regenerates Fig. 4c (per-AS route vs
// community share scatter) across the four IXPs.
func BenchmarkFigure4c_Correlation(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range l.Profiles {
			_ = analysis.RouteCommCorrelation(l.Snapshots[p.IXP], p.Scheme, false)
		}
	}
}

// BenchmarkTable2_ASesPerActionType regenerates Table 2 (number and
// fraction of ASes using each action type, both families).
func BenchmarkTable2_ASesPerActionType(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range l.Profiles {
			s := l.Snapshots[p.IXP]
			_ = analysis.ASesPerActionType(s, p.Scheme, false)
			_ = analysis.ASesPerActionType(s, p.Scheme, true)
		}
	}
}

// BenchmarkSec53_OccurrencesPerType regenerates the §5.3 occurrence
// counts per action type and reports DE-CIX's do-not-announce share.
func BenchmarkSec53_OccurrencesPerType(b *testing.B) {
	s, scheme := benchSnapshot(b, "DE-CIX")
	var dnaShare float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		occ := analysis.OccurrencesPerType(s, scheme, false)
		total := 0
		for _, n := range occ {
			total += n
		}
		if total > 0 {
			dnaShare = float64(occ[dictionary.DoNotAnnounceTo]) / float64(total)
		}
	}
	b.ReportMetric(100*dnaShare, "dna_share_%")
}

// BenchmarkFigure5_TopCommunities regenerates Fig. 5 (top-20 action
// communities per IXP).
func BenchmarkFigure5_TopCommunities(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range l.Profiles {
			_ = analysis.TopActionCommunities(l.Snapshots[p.IXP], p.Scheme, false, 20)
		}
	}
}

// BenchmarkFigure6_NonMemberTargets regenerates Fig. 6 / §5.5 (action
// communities targeting ASes absent from the RS) and reports the
// LINX v4 share.
func BenchmarkFigure6_NonMemberTargets(b *testing.B) {
	l := lab(b)
	var linxShare float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range l.Profiles {
			nm := analysis.ComputeNonMemberTargeting(l.Snapshots[p.IXP], p.Scheme, false, 20)
			if p.IXP == "LINX" {
				linxShare = nm.Share()
			}
		}
	}
	b.ReportMetric(100*linxShare, "linx_nonmember_%")
}

// BenchmarkFigure7_Culprits regenerates Fig. 7 (top-10 ASes tagging
// non-RS members) and reports Hurricane Electric's share at DE-CIX.
func BenchmarkFigure7_Culprits(b *testing.B) {
	s, scheme := benchSnapshot(b, "DE-CIX")
	var heShare float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		culprits := analysis.CulpritRanking(s, scheme, false, 10)
		nm := analysis.ComputeNonMemberTargeting(s, scheme, false, 0)
		for _, c := range culprits {
			if c.ASN == 6939 && nm.Instances > 0 {
				heShare = float64(c.Count) / float64(nm.Instances)
			}
		}
	}
	b.ReportMetric(100*heShare, "he_share_%")
}

// benchSeries generates a daily snapshot series for the stability
// benches (small scale: the tables need counts, not volume).
func benchSeries(b *testing.B, days int, valleys []int) []*collector.Snapshot {
	b.Helper()
	p := ixpgen.ProfileByName("AMS-IX")
	opts := ixpgen.TemporalOptions{Seed: benchSeed, Scale: 0.01, Days: days, ValleyDays: valleys}
	var snaps []*collector.Snapshot
	for d := 0; d < days; d++ {
		w, date, err := ixpgen.GenerateDay(*p, opts, d)
		if err != nil {
			b.Fatal(err)
		}
		snaps = append(snaps, w.Snapshot(date))
	}
	return snaps
}

// BenchmarkTable3_WeeklyStability regenerates Table 3 (variation over
// seven daily snapshots) and reports the max diff percentage.
func BenchmarkTable3_WeeklyStability(b *testing.B) {
	snaps := benchSeries(b, 7, nil)
	var maxDiff float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t4 := analysis.Stability(snaps, false)
		_ = analysis.Stability(snaps, true)
		maxDiff = t4.MaxDiffPct()
	}
	b.ReportMetric(maxDiff, "max_diff_%")
}

// BenchmarkTable4_ThreeMonthStability regenerates Table 4 (variation
// over twelve weekly snapshots).
func BenchmarkTable4_ThreeMonthStability(b *testing.B) {
	snaps := analysis.WeeklyRepresentatives(benchSeries(b, 84, nil))
	var maxDiff float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t4 := analysis.Stability(snaps, false)
		maxDiff = t4.MaxDiffPct()
	}
	b.ReportMetric(maxDiff, "max_diff_%")
}

// BenchmarkSanitation_ValleyDetection measures the §3 valley detector
// over a three-week series with two injected collection failures.
func BenchmarkSanitation_ValleyDetection(b *testing.B) {
	snaps := benchSeries(b, 21, []int{5, 13})
	var removed int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, removed = sanitize.Clean(snaps, sanitize.Options{})
	}
	b.ReportMetric(float64(removed), "removed")
}

// --- Ablation benches (DESIGN.md §5) ---

// BenchmarkAblation_DictionaryLookupMap vs ...Binary compare the two
// dictionary index representations.
func BenchmarkAblation_DictionaryLookupMap(b *testing.B) {
	d := dictionary.Build(dictionary.ProfileByName("DE-CIX"))
	entries := d.Entries()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := entries[i%len(entries)].Community
		if _, ok := d.Lookup(c); !ok {
			b.Fatal("miss")
		}
	}
}

// BenchmarkAblation_DictionaryLookupBinary is the sorted-slice twin.
func BenchmarkAblation_DictionaryLookupBinary(b *testing.B) {
	d := dictionary.Build(dictionary.ProfileByName("DE-CIX"))
	entries := d.Entries()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := entries[i%len(entries)].Community
		if _, ok := d.LookupBinary(c); !ok {
			b.Fatal("miss")
		}
	}
}

// ablationServer builds a populated route server for the export
// ablation.
func ablationServer(b *testing.B) (*rs.Server, []rs.Peer) {
	b.Helper()
	p := ixpgen.ProfileByName("LINX")
	server, err := rs.New(rs.Config{Scheme: p.Scheme, ScrubActions: true})
	if err != nil {
		b.Fatal(err)
	}
	w, err := ixpgen.Generate(*p, ixpgen.Options{Seed: benchSeed, Scale: 0.01})
	if err != nil {
		b.Fatal(err)
	}
	if err := w.Populate(server); err != nil {
		b.Fatal(err)
	}
	return server, server.Peers()
}

// BenchmarkAblation_ExportPrecomputed measures per-peer export with
// the import-time action summaries.
func BenchmarkAblation_ExportPrecomputed(b *testing.B) {
	server, peers := ablationServer(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = server.ExportTo(peers[i%len(peers)].ASN)
	}
}

// BenchmarkAblation_ExportScan re-classifies every community on every
// export decision instead.
func BenchmarkAblation_ExportScan(b *testing.B) {
	server, peers := ablationServer(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = server.ExportToScan(peers[i%len(peers)].ASN)
	}
}

// BenchmarkAblation_SnapshotCodec compares the five snapshot
// serialisations (write + read back) on the same snapshot.
func BenchmarkAblation_SnapshotCodec(b *testing.B) {
	s, _ := benchSnapshot(b, "AMS-IX")
	for _, codec := range collector.Codecs() {
		b.Run(codec.String(), func(b *testing.B) {
			var size int
			for i := 0; i < b.N; i++ {
				var buf bytes.Buffer
				if err := collector.WriteSnapshot(&buf, s, codec); err != nil {
					b.Fatal(err)
				}
				size = buf.Len()
				if _, err := collector.ReadSnapshot(&buf, codec); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(size), "bytes")
			if n := len(s.Routes); n > 0 {
				b.ReportMetric(float64(size)/float64(n), "bytes_per_route")
			}
		})
	}
}

// BenchmarkAblation_CommunitySetSlice vs ...Map compare membership
// testing on realistic (short) per-route community lists.
func BenchmarkAblation_CommunitySetSlice(b *testing.B) {
	s, _ := benchSnapshot(b, "DE-CIX")
	routes := s.Routes
	needle := bgp.BlackholeWellKnown
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := routes[i%len(routes)]
		_ = bgp.HasCommunity(r.Communities, needle)
	}
}

// BenchmarkAblation_CommunitySetMap builds a map per route, the
// alternative HasCommunity avoids.
func BenchmarkAblation_CommunitySetMap(b *testing.B) {
	s, _ := benchSnapshot(b, "DE-CIX")
	routes := s.Routes
	needle := bgp.BlackholeWellKnown
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := routes[i%len(routes)]
		set := make(map[bgp.Community]bool, len(r.Communities))
		for _, c := range r.Communities {
			set[c] = true
		}
		_ = set[needle]
	}
}

// BenchmarkWireMarshalUpdate measures the BGP codec on a realistic
// heavily-tagged update.
func BenchmarkWireMarshalUpdate(b *testing.B) {
	s, _ := benchSnapshot(b, "DE-CIX")
	// Use the most-tagged route as the payload.
	var heavy bgp.Route
	for _, r := range s.Routes {
		if r.CommunityCount() > heavy.CommunityCount() && !r.IsIPv6() {
			heavy = r
		}
	}
	u := bgp.NewUpdateFromRoute(heavy)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err := bgp.Marshal(u)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := bgp.Unmarshal(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEndToEndExperimentSuite runs the complete cmd/analyze
// experiment battery once per iteration (output discarded).
func BenchmarkEndToEndExperimentSuite(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, name := range []string{"table1", "fig1", "fig2", "fig3", "fig4a", "fig4b", "fig4c", "table2", "sec53", "fig5", "fig6", "fig7"} {
			if err := l.Run(io.Discard, name); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkExtension_FlavourActions regenerates the extension
// analysis: action instances per community flavour.
func BenchmarkExtension_FlavourActions(b *testing.B) {
	l := lab(b)
	var wide int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range l.Profiles {
			f := analysis.ComputeFlavourActions(l.Snapshots[p.IXP], p.Scheme, false)
			if p.IXP == "DE-CIX" {
				wide = f.LargeWideTargets
			}
		}
	}
	b.ReportMetric(float64(wide), "wide_targets")
}

// BenchmarkSec56_HygieneFilter regenerates the §5.6 what-if: the
// impact of a too-many-communities import filter.
func BenchmarkSec56_HygieneFilter(b *testing.B) {
	s, _ := benchSnapshot(b, "DE-CIX")
	var drop float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		impacts := analysis.HygieneFilterImpact(s, false, []int{10, 20, 40, 80})
		drop = impacts[1].DropShare()
	}
	b.ReportMetric(100*drop, "dropped_at_20_%")
}

// BenchmarkMethodology_VisibilityGap measures the LG-vs-collector
// visibility comparison that motivates the paper's vantage point.
func BenchmarkMethodology_VisibilityGap(b *testing.B) {
	l := lab(b)
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := l.Run(&buf, "visibility"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSec54_TargetIntersection regenerates the §5.4 cross-IXP
// target overlap analysis.
func BenchmarkSec54_TargetIntersection(b *testing.B) {
	l := lab(b)
	var ixps []analysis.IXPSnapshot
	for _, p := range l.Profiles {
		ixps = append(ixps, analysis.IXPSnapshot{Snapshot: l.Snapshots[p.IXP], Scheme: p.Scheme})
	}
	var common int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, c := analysis.TargetIntersections(ixps, false, 20)
		common = len(c)
	}
	b.ReportMetric(float64(common), "common_targets")
}

// BenchmarkSec54_CategoryBreakdown regenerates the target-category
// aggregation.
func BenchmarkSec54_CategoryBreakdown(b *testing.B) {
	l := lab(b)
	s, scheme := benchSnapshot(b, "DE-CIX")
	var content float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br := analysis.ComputeCategoryBreakdown(s, scheme, l.Registry, false)
		content = analysis.ContentShare(br.NonMembers)
	}
	b.ReportMetric(100*content, "content_share_%")
}

// BenchmarkMRTWriteRead measures dumping and re-parsing a snapshot as
// a RouteViews-style archive.
func BenchmarkMRTWriteRead(b *testing.B) {
	s, _ := benchSnapshot(b, "AMS-IX")
	var size int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := mrt.WriteRIB(&buf, s); err != nil {
			b.Fatal(err)
		}
		size = buf.Len()
		if _, err := mrt.ReadRIB(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(size), "bytes")
}

// BenchmarkDictionaryFromArtifacts measures the full §3 dictionary
// construction from the two textual artifacts.
func BenchmarkDictionaryFromArtifacts(b *testing.B) {
	scheme := dictionary.ProfileByName("DE-CIX")
	cfgText := rsconfig.Render(scheme, rsconfig.Options{})
	page := webdocs.Render(scheme)
	var size int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		defs, err := rsconfig.Parse(cfgText)
		if err != nil {
			b.Fatal(err)
		}
		docs, err := webdocs.Parse(page)
		if err != nil {
			b.Fatal(err)
		}
		union := dictionary.UnionEntries(
			rsconfig.Entries(scheme.IXP, defs),
			webdocs.Entries(scheme, docs),
		)
		size = dictionary.FromEntries(scheme.IXP, union).Size()
	}
	b.ReportMetric(float64(size), "entries")
}

// BenchmarkExpAll is the wall-clock target for the full `-exp all`
// battery: the complete experiment list over the big-four lab, as
// cmd/analyze runs it. Both sub-benchmarks run the indexed path (index
// builds and Stability use GOMAXPROCS workers either way); parallel=1
// is a 1-worker lab that runs the experiments one after another, and
// parallel=N (N = GOMAXPROCS) fans them out. Their ratio is the
// host's experiment fan-out speedup. The direct-classify ablation
// lives in internal/analysis (BenchmarkAblation_Classify*).
func BenchmarkExpAll(b *testing.B) {
	const expAllScale = 0.004 // keeps one iteration (incl. table4's 84-day series) affordable
	workerCounts := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		workerCounts = append(workerCounts, n)
	}
	for _, workers := range workerCounts {
		b.Run(fmt.Sprintf("parallel=%d", workers), func(b *testing.B) {
			l, err := report.NewLabParallel(ixpgen.BigFour(), benchSeed, expAllScale, workers)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				outs, err := l.RunMany(report.ExperimentNames)
				if err != nil {
					b.Fatal(err)
				}
				total := 0
				for _, out := range outs {
					total += len(out)
				}
				if total == 0 {
					b.Fatal("empty output")
				}
			}
		})
	}
}
