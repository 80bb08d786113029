module logicallog/bench

go 1.22

require logicallog v0.0.0

replace logicallog => ../
