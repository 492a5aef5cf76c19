module boundschema/bench

go 1.22

require boundschema v0.0.0

replace boundschema => ../
