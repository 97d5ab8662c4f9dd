module famedb/benchmark

go 1.22

require famedb v0.0.0

replace famedb => ../
