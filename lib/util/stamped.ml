let rec sift (a : int array) root last =
  let child = (2 * root) + 1 in
  if child <= last then begin
    let child = if child < last && a.(child + 1) > a.(child) then child + 1 else child in
    if a.(child) > a.(root) then begin
      let x = a.(root) in
      a.(root) <- a.(child);
      a.(child) <- x;
      sift a child last
    end
  end

let sort ~stamp ~(epoch : int) ~n set k =
  if 8 * k >= n then begin
    let j = ref 0 in
    for v = 0 to n - 1 do
      if stamp.(v) = epoch then begin
        set.(!j) <- v;
        incr j
      end
    done
  end
  else begin
    for root = (k / 2) - 1 downto 0 do
      sift set root (k - 1)
    done;
    for last = k - 1 downto 1 do
      let x = set.(0) in
      set.(0) <- set.(last);
      set.(last) <- x;
      sift set 0 (last - 1)
    done
  end
