type t = int array
type size = int array
type bounds = { lower : t; upper : t }

let volume (s : size) = Array.fold_left ( * ) 1 s
let extent b = Array.init (Array.length b.lower) (fun d -> b.upper.(d) - b.lower.(d))

let contains b ix =
  let ok = ref (Array.length ix = Array.length b.lower) in
  if !ok then
    for d = 0 to Array.length ix - 1 do
      if ix.(d) < b.lower.(d) || ix.(d) >= b.upper.(d) then ok := false
    done;
  !ok

let row_major (s : size) (ix : t) =
  let off = ref 0 in
  for d = 0 to Array.length s - 1 do
    off := (!off * s.(d)) + ix.(d)
  done;
  !off

let local_offset b ix =
  if not (contains b ix) then
    invalid_arg "Index.local_offset: index outside bounds";
  let off = ref 0 in
  for d = 0 to Array.length ix - 1 do
    off := (!off * (b.upper.(d) - b.lower.(d))) + (ix.(d) - b.lower.(d))
  done;
  !off

let iter b f =
  let dim = Array.length b.lower in
  let ix = Array.copy b.lower in
  let nonempty = ref true in
  for d = 0 to dim - 1 do
    if b.upper.(d) <= b.lower.(d) then nonempty := false
  done;
  if !nonempty then begin
    let continue_ = ref true in
    while !continue_ do
      f ix;
      (* advance odometer, last dimension fastest *)
      let d = ref (dim - 1) in
      let carried = ref true in
      while !carried && !d >= 0 do
        ix.(!d) <- ix.(!d) + 1;
        if ix.(!d) >= b.upper.(!d) then begin
          ix.(!d) <- b.lower.(!d);
          decr d
        end
        else carried := false
      done;
      if !carried then continue_ := false
    done
  end

let pp ppf (ix : t) =
  Format.fprintf ppf "{%s}"
    (String.concat "," (Array.to_list (Array.map string_of_int ix)))

let pp_bounds ppf b =
  Format.fprintf ppf "[%a .. %a)" pp b.lower pp b.upper
