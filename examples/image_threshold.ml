(* The paper's section 2.4 motivating example, scaled up into a small image
   pipeline: threshold a synthetic grayscale "image" against a value
   (array_map with a partially applied comparison), then count the
   above-threshold pixels (array_fold).

   Run with: dune exec examples/image_threshold.exe *)

let () =
  let h = 64 and w = 64 in
  let topology = Topology.mesh ~width:4 ~height:1 in
  let image ix =
    (* a bright diagonal blob on a dark background *)
    let dy = float_of_int (ix.(0) - 32) and dx = float_of_int (ix.(1) - 32) in
    255.0 *. exp (-.((dx *. dx) +. (dy *. dy)) /. 300.0)
  in
  let threshold = 64.0 in
  let above_thresh thresh elem _ix = if elem >= thresh then 1 else 0 in
  let r =
    Machine.run ~topology (fun ctx ->
        let a =
          Skeletons.create ctx ~gsize:[| h; w |] ~distr:Darray.Default image
        in
        let b =
          Skeletons.create ctx ~gsize:[| h; w |] ~distr:Darray.Default
            (fun _ -> 0)
        in
        (* the paper's call: array_map (above_thresh (t), A, B) *)
        Skeletons.map_into ctx (above_thresh threshold) a b;
        (Skeletons.fold ctx ~conv:(fun v _ -> v) ( + ) b, b))
  in
  let bright, b = r.Machine.values.(0) in
  Printf.printf "image %dx%d, threshold %.0f: %d bright pixels\n" h w
    threshold bright;
  Printf.printf "simulated time: %.4f s\n\n" r.Machine.time;
  (* a small ASCII rendering of the mask *)
  let flat = Darray.to_flat b in
  for row = 0 to (h / 4) - 1 do
    for col = 0 to (w / 2) - 1 do
      print_char (if flat.((row * 4 * w) + (col * 2)) = 1 then '#' else '.')
    done;
    print_newline ()
  done
