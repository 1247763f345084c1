// Package biomed implements the paper's biomedical benchmark (Section 6): a
// synthetic stand-in for the ICGC datasets (the real data is access-gated —
// see docs/ARCHITECTURE.md, Substitutions) and the five-step end-to-end
// driver-gene pipeline E2E based on Zhang & Wang [47].
//
// Shapes mirror the paper's inputs: Occurrences is the two-level nested BN2
// (samples → mutations → candidate gene annotations, as produced by the
// Ensembl VEP), Network is the one-level nested BN1 (the STRING
// protein-protein network), and Samples/CopyNumber/SOImpact are the flat
// BF1/BF2/BF3 (SOImpact is the tiny Sequence Ontology score table).
package biomed

import (
	"fmt"
	"math/rand"

	"github.com/trance-go/trance/internal/nrc"
	"github.com/trance-go/trance/internal/value"
)

// Schema types.
var (
	// CandidateType is one VEP consequence annotation.
	CandidateType = nrc.Tup("c_gene", nrc.IntT, "c_impact", nrc.StringT, "c_sift", nrc.RealT)
	// MutationType is one somatic mutation with its candidate effects. As in
	// the ICGC simple-somatic-mutation format, each mutation row carries its
	// donor sample ID redundantly.
	MutationType = nrc.Tup("m_sample", nrc.StringT, "m_id", nrc.IntT, "m_start", nrc.IntT,
		"m_candidates", nrc.BagOf(CandidateType))
	// OccurrencesType is BN2: two-level nested mutation occurrences.
	OccurrencesType = nrc.BagOf(nrc.Tup("o_sample", nrc.StringT,
		"o_mutations", nrc.BagOf(MutationType)))
	// NetworkType is BN1: one-level nested gene interaction network.
	NetworkType = nrc.BagOf(nrc.Tup("n_gene", nrc.IntT,
		"n_edges", nrc.BagOf(nrc.Tup("e_gene", nrc.IntT, "e_dist", nrc.RealT))))
	// SamplesType is BF1.
	SamplesType = nrc.BagOf(nrc.Tup("s_sample", nrc.StringT, "s_site", nrc.StringT))
	// CopyNumberType is BF2.
	CopyNumberType = nrc.BagOf(nrc.Tup("cn_sample", nrc.StringT, "cn_gene", nrc.IntT, "cn_copies", nrc.RealT))
	// SOImpactType is BF3.
	SOImpactType = nrc.BagOf(nrc.Tup("i_impact", nrc.StringT, "i_score", nrc.RealT))
)

// Env is the input environment of the pipeline.
func Env() nrc.Env {
	return nrc.Env{
		"Occurrences": OccurrencesType,
		"Network":     NetworkType,
		"Samples":     SamplesType,
		"CopyNumber":  CopyNumberType,
		"SOImpact":    SOImpactType,
	}
}

// Config sizes the synthetic dataset.
type Config struct {
	Samples            int
	MutationsPerSample int // average
	CandidatesPerMut   int // average
	Genes              int
	EdgesPerGene       int // average
	Seed               int64
}

// SmallConfig mirrors the paper's "small dataset" variant.
func SmallConfig() Config {
	return Config{Samples: 30, MutationsPerSample: 8, CandidatesPerMut: 3, Genes: 60, EdgesPerGene: 6, Seed: 11}
}

// FullConfig mirrors the paper's full dataset (scaled to the simulator).
func FullConfig() Config {
	return Config{Samples: 120, MutationsPerSample: 20, CandidatesPerMut: 4, Genes: 150, EdgesPerGene: 12, Seed: 11}
}

var impacts = []string{"HIGH", "MODERATE", "LOW", "MODIFIER"}
var sites = []string{"breast", "colon", "lung", "ovary", "prostate", "skin"}

// Generate builds the synthetic dataset deterministically.
func Generate(cfg Config) map[string]value.Bag {
	r := rand.New(rand.NewSource(cfg.Seed))

	occurrences := make(value.Bag, 0, cfg.Samples)
	samples := make(value.Bag, 0, cfg.Samples)
	var copyNumber value.Bag
	mutID := int64(0)
	for i := 0; i < cfg.Samples; i++ {
		sample := fmt.Sprintf("SA%05d", i+1)
		samples = append(samples, value.Tuple{sample, sites[i%len(sites)]})
		muts := value.Bag{}
		for j := 0; j < 1+r.Intn(2*cfg.MutationsPerSample); j++ {
			mutID++
			cands := value.Bag{}
			for k := 0; k < 1+r.Intn(2*cfg.CandidatesPerMut); k++ {
				cands = append(cands, value.Tuple{
					int64(1 + r.Intn(cfg.Genes)),
					impacts[r.Intn(len(impacts))],
					float64(r.Intn(100)) / 100,
				})
			}
			muts = append(muts, value.Tuple{sample, mutID, int64(r.Intn(1 << 20)), cands})
		}
		occurrences = append(occurrences, value.Tuple{sample, muts})
		// Copy number for a subset of genes per sample.
		for g := 1; g <= cfg.Genes; g++ {
			if r.Intn(3) == 0 {
				continue // missing copy-number call
			}
			copyNumber = append(copyNumber, value.Tuple{sample, int64(g), float64(r.Intn(5))})
		}
	}

	network := make(value.Bag, 0, cfg.Genes)
	for g := 1; g <= cfg.Genes; g++ {
		edges := value.Bag{}
		for e := 0; e < 1+r.Intn(2*cfg.EdgesPerGene); e++ {
			edges = append(edges, value.Tuple{
				int64(1 + r.Intn(cfg.Genes)),
				float64(1+r.Intn(999)) / 1000,
			})
		}
		network = append(network, value.Tuple{int64(g), edges})
	}

	soImpact := value.Bag{}
	for i, imp := range impacts {
		soImpact = append(soImpact, value.Tuple{imp, float64(len(impacts)-i) / float64(len(impacts))})
	}

	return map[string]value.Bag{
		"Occurrences": occurrences,
		"Network":     network,
		"Samples":     samples,
		"CopyNumber":  copyNumber,
		"SOImpact":    soImpact,
	}
}

// SelectiveBurden is a flat variant of the Step1 burden aggregation with two
// selective guards: only near-deleterious candidates (c_sift ≥ 0.9, ~10% of
// generated candidates) against impactful consequence classes (i_score ≥
// 0.5) contribute. The sift guard compiles to a residual selection above the
// SOImpact join and the score guard filters the join's other side — the
// shapes the rule-based optimizer's predicate pushdown targets
// (BenchmarkPushdownAblation measures the win on this query).
func SelectiveBurden() nrc.Expr {
	return nrc.SumByOf(
		nrc.ForIn("o", nrc.V("Occurrences"),
			nrc.ForIn("m", nrc.P(nrc.V("o"), "o_mutations"),
				nrc.ForIn("c", nrc.P(nrc.V("m"), "m_candidates"),
					nrc.ForIn("i", nrc.V("SOImpact"),
						nrc.IfThen(
							nrc.AndOf(
								nrc.EqOf(nrc.P(nrc.V("c"), "c_impact"), nrc.P(nrc.V("i"), "i_impact")),
								nrc.AndOf(
									nrc.GeOf(nrc.P(nrc.V("c"), "c_sift"), nrc.C(0.9)),
									nrc.GeOf(nrc.P(nrc.V("i"), "i_score"), nrc.C(0.5)))),
							nrc.SingOf(nrc.Record(
								"gene", nrc.P(nrc.V("c"), "c_gene"),
								"burden", nrc.MulOf(nrc.P(nrc.V("c"), "c_sift"), nrc.P(nrc.V("i"), "i_score"))))))))),
		[]string{"gene"}, []string{"burden"})
}

// Steps builds the five constituent queries of E2E.
//
// Step1 flattens the whole of Occurrences with nested joins (SOImpact at the
// candidate level, CopyNumber keyed by sample and gene), aggregates a hybrid
// burden score per gene, and regroups to nested output per sample.
//
// Step2 joins the Network with the first level of Step1's output — the
// data-explosion step of the paper (gene sets × network edges) — aggregating
// a network-propagated effect per hub gene.
//
// Steps 3–5 connect samples to tumour sites, aggregate per gene, and emit
// the final flat driver scores.
func Steps() []nrc.Assignment {
	step1 := nrc.ForIn("o", nrc.V("Occurrences"),
		nrc.SingOf(nrc.Record(
			"sample", nrc.P(nrc.V("o"), "o_sample"),
			"genes", nrc.SumByOf(
				nrc.ForIn("m", nrc.P(nrc.V("o"), "o_mutations"),
					nrc.ForIn("c", nrc.P(nrc.V("m"), "m_candidates"),
						nrc.ForIn("i", nrc.V("SOImpact"),
							nrc.IfThen(nrc.EqOf(nrc.P(nrc.V("c"), "c_impact"), nrc.P(nrc.V("i"), "i_impact")),
								nrc.ForIn("cn", nrc.V("CopyNumber"),
									nrc.IfThen(
										nrc.AndOf(
											nrc.EqOf(nrc.P(nrc.V("cn"), "cn_sample"), nrc.P(nrc.V("m"), "m_sample")),
											nrc.EqOf(nrc.P(nrc.V("cn"), "cn_gene"), nrc.P(nrc.V("c"), "c_gene"))),
										nrc.SingOf(nrc.Record(
											"gene", nrc.P(nrc.V("c"), "c_gene"),
											"burden", nrc.MulOf(
												nrc.MulOf(nrc.P(nrc.V("c"), "c_sift"), nrc.P(nrc.V("i"), "i_score")),
												nrc.AddOf(nrc.P(nrc.V("cn"), "cn_copies"), nrc.C(0.01))),
										)))))))),
				[]string{"gene"}, []string{"burden"}),
		)))

	// The gene-set generator comes first so the shredded route localizes the
	// join to the genes dictionary (domain-elimination rule 1); the network
	// is flattened by an uncorrelated subquery joined on the edge gene.
	edges := nrc.ForIn("n", nrc.V("Network"),
		nrc.ForIn("e", nrc.P(nrc.V("n"), "n_edges"),
			nrc.SingOf(nrc.Record(
				"hub", nrc.P(nrc.V("n"), "n_gene"),
				"egene", nrc.P(nrc.V("e"), "e_gene"),
				"dist", nrc.P(nrc.V("e"), "e_dist"),
			))))
	step2 := nrc.ForIn("s1", nrc.V("Step1"),
		nrc.SingOf(nrc.Record(
			"sample", nrc.P(nrc.V("s1"), "sample"),
			"nodes", nrc.SumByOf(
				nrc.ForIn("g", nrc.P(nrc.V("s1"), "genes"),
					nrc.ForIn("ed", edges,
						nrc.IfThen(nrc.EqOf(nrc.P(nrc.V("g"), "gene"), nrc.P(nrc.V("ed"), "egene")),
							nrc.SingOf(nrc.Record(
								"gene", nrc.P(nrc.V("ed"), "hub"),
								"effect", nrc.MulOf(nrc.P(nrc.V("g"), "burden"), nrc.P(nrc.V("ed"), "dist")),
							))))),
				[]string{"gene"}, []string{"effect"}),
		)))

	step3 := nrc.SumByOf(
		nrc.ForIn("s2", nrc.V("Step2"),
			nrc.ForIn("bs", nrc.V("Samples"),
				nrc.IfThen(nrc.EqOf(nrc.P(nrc.V("bs"), "s_sample"), nrc.P(nrc.V("s2"), "sample")),
					nrc.ForIn("nd", nrc.P(nrc.V("s2"), "nodes"),
						nrc.SingOf(nrc.Record(
							"site", nrc.P(nrc.V("bs"), "s_site"),
							"gene", nrc.P(nrc.V("nd"), "gene"),
							"score", nrc.P(nrc.V("nd"), "effect"),
						)))))),
		[]string{"site", "gene"}, []string{"score"})

	step4 := nrc.SumByOf(
		nrc.ForIn("x", nrc.V("Step3"),
			nrc.SingOf(nrc.Record("gene", nrc.P(nrc.V("x"), "gene"), "score", nrc.P(nrc.V("x"), "score")))),
		[]string{"gene"}, []string{"score"})

	step5 := nrc.SumByOf(
		nrc.ForIn("x", nrc.V("Step4"),
			nrc.ForIn("n", nrc.V("Network"),
				nrc.IfThen(nrc.EqOf(nrc.P(nrc.V("n"), "n_gene"), nrc.P(nrc.V("x"), "gene")),
					nrc.SingOf(nrc.Record("gene", nrc.P(nrc.V("x"), "gene"), "final", nrc.P(nrc.V("x"), "score")))))),
		[]string{"gene"}, []string{"final"})

	return []nrc.Assignment{
		{Name: "Step1", Expr: step1},
		{Name: "Step2", Expr: step2},
		{Name: "Step3", Expr: step3},
		{Name: "Step4", Expr: step4},
		{Name: "Step5", Expr: step5},
	}
}
