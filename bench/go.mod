module github.com/trance-go/trance/bench

go 1.24

require github.com/trance-go/trance v0.0.0

replace github.com/trance-go/trance => ../
