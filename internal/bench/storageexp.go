package bench

import (
	"fmt"
	"sort"
	"strings"

	"microadapt/internal/core"
	"microadapt/internal/primitive"
	"microadapt/internal/stats"
	"microadapt/internal/tpch"
)

// storageQueries are the scan-dominated plans where the encoding choice and
// the decompression flavors carry the most cycles: Q1 has no selection
// (pure eager-decode pressure), Q6/Q12/Q14 push date and quantity
// predicates into the encoded scan, and Q10/Q17 push equality predicates
// over dictionary-encoded low-cardinality columns (l_returnflag, p_brand,
// p_container) — the operate-on-compressed sweet spot.
var storageQueries = []int{1, 6, 10, 12, 14, 17}

// storageComparison measures compressed columnar storage against flat: per
// query, primitive cycles and the off-best fraction under both storage
// forms, plus the resident-bytes reduction of the analyzer's encodings and
// the decompression flavors each instance's bandit learned — the paper's
// decompression scenario (its flagship example of a primitive whose best
// implementation is data-dependent) on real TPC-H data. Each cell is one
// cold session: at a fixed seed a repeat would measure the same cycles.
// That encoded results equal flat ones is the identity oracle's enc-p rows
// (internal/dist).
func storageComparison(l *lab) (string, error) {
	flatDB := l.tpchDB()
	// Encode a fresh database, never the lab's: the lab's database is
	// shared by every experiment of the run, and encoding it in place would
	// silently flip all later flat runs to encoded scans.
	encDB := tpch.Generate(l.cfg.SF, l.cfg.Seed).Encode()
	flatBytes, residentBytes := encDB.StorageFootprint()

	opts := primitive.Everything()
	rows := [][]string{{"query", "storage", "prim Mcycles", "off-best%"}}
	var winners []decompressWinner
	for _, qn := range storageQueries {
		q := tpch.Query(qn)
		for _, mode := range []struct {
			name string
			db   *tpch.DB
		}{{"flat", flatDB}, {"encoded", encDB}} {
			s := l.cfg.tpchSession(opts, nil)
			if _, err := q.Run(mode.db, s); err != nil {
				return "", fmt.Errorf("storage %s %s: %w", q.Name, mode.name, err)
			}
			if mode.name == "encoded" {
				winners = append(winners, collectDecompressWinners(s, q.Name)...)
			}
			adaptive, offBest := core.AdaptationCost(s.AllInstances())
			offPct := 0.0
			if adaptive > 0 {
				offPct = 100 * float64(offBest) / float64(adaptive)
			}
			rows = append(rows, []string{
				q.Name, mode.name,
				fmt.Sprintf("%.2f", s.Ctx.PrimCycles/1e6),
				fmt.Sprintf("%.1f", offPct),
			})
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "resident bytes: flat %d -> encoded %d (%.1f%% of flat)\n\n",
		flatBytes, residentBytes, 100*float64(residentBytes)/float64(flatBytes))
	b.WriteString(stats.FormatTable(rows))
	b.WriteString("\nlearned decompression winners (encoded runs, per instance):\n")
	onCompressed := 0
	sort.Slice(winners, func(i, j int) bool { return winners[i].label < winners[j].label })
	for _, w := range winners {
		fmt.Fprintf(&b, "  %-64s %s\n", w.label, w.flavor)
		if w.flavor == "oncompressed" {
			onCompressed++
		}
	}
	fmt.Fprintf(&b, "\n%d instances learned an operate-on-compressed selection; one cold session\nper cell (policy vw-greedy). Lineitem encodings:\n%s",
		onCompressed, encDB.Lineitem.Enc.Summary())
	return b.String(), nil
}

// decompressWinner is one instance's measured-cheapest flavor.
type decompressWinner struct{ label, flavor string }

// collectDecompressWinners returns, for every decompression-family
// instance of the session, the flavor its bandit measured cheapest.
func collectDecompressWinners(s *core.Session, qname string) []decompressWinner {
	var out []decompressWinner
	for _, inst := range s.AllInstances() {
		sig := inst.Prim.Sig
		if !strings.HasPrefix(sig, "scan_decompress_") && !strings.HasPrefix(sig, "selenc_") {
			continue
		}
		if len(inst.Prim.Flavors) <= 1 || inst.Calls == 0 {
			continue
		}
		best := inst.BestMeasuredArm()
		if best < 0 {
			continue
		}
		out = append(out, decompressWinner{
			label:  qname + ": " + core.BaseLabel(inst.Label),
			flavor: inst.Arms[best],
		})
	}
	return out
}
