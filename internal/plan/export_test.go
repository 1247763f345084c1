package plan

// IDDepsOf exposes the ID-dependency analysis to the external tests, which
// check Prune against it over compiled plans.
func IDDepsOf(op Op) [][]int { return idDepsOf(op, Schemas{}) }

// MapExpr exposes the scalar-expression child map to the external tests.
func MapExpr(e Expr, fn func(Expr) Expr) Expr { return mapExpr(e, fn) }
