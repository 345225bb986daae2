package repro.sketch

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.mi.{ColData, NumCol, StrCol}
import repro.sketch.Sketch.Sample

/** The sketch join as a Spark DataFrame inner join on hkey, collected with
  * the rule that a column is numeric iff all its string slots are null. It
  * was the main code's sketch join before the in-memory merge
  * ([[Sketch.merge]]) replaced it, and is kept as that merge's oracle.
  */
object SketchJoinOracle {

  def join(left: DataFrame, right: DataFrame): DataFrame =
    left
      .select(col("hkey"), col("vNum") as "yNum", col("vStr") as "yStr")
      .join(
        right.select(col("hkey"), col("vNum") as "xNum", col("vStr") as "xStr"),
        Seq("hkey"),
      )

  def collectSample(joined: DataFrame): Sample = {
    val rows = joined.select("xNum", "xStr", "yNum", "yStr").collect()
    def colOf(numIdx: Int, strIdx: Int): ColData = {
      val numeric = rows.forall(_.isNullAt(strIdx))
      if (numeric) NumCol(rows.map(_.getDouble(numIdx)))
      else StrCol(rows.map(_.getString(strIdx)))
    }
    Sample(x = colOf(0, 1), y = colOf(2, 3))
  }
}
