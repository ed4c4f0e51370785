module xrefine/bench

go 1.22

require xrefine v0.0.0

replace xrefine => ../
