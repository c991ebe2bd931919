let used = 1
let never_used = 2
let pardoned = 3
