module anonconsensus/benchmark

go 1.24

require anonconsensus v0.0.0

replace anonconsensus => ../
