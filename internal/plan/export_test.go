package plan

// IDDepsOf exposes the ID-dependency analysis to the external tests, which
// check Prune against it over compiled plans.
func IDDepsOf(op Op) [][]int { return idDepsOf(op) }
