type local = int
type orig = int

let local v = v
let local_int v = v
let orig_int v = v

module Map = struct
  type t = int array

  let of_array a = a
  let length = Array.length
  let get m v = m.(v)

  let translate m vs = Array.map (fun v -> m.(v)) vs

  let translate_edge m (u, v) =
    let a = m.(u) and b = m.(v) in
    (Int.min a b, Int.max a b)
end
