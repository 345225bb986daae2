package repro.sketch

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._

/** MODE as the main code computed it before [[Featurize.aggregateNorm]]
  * became one aggregation: count each (k, value) pair, then keep the most
  * frequent value per key, ties broken by the smaller value. Grouping by the
  * value folds -0.0 into 0.0. Kept as the oracle for MODE through Spark's
  * `mode`; maps a normalized table `[k, vNum, vStr, rid]` to `[k, vNum, vStr]`.
  */
object ModeOracle {

  def mode(norm: DataFrame): DataFrame = {
    val counts = norm
      .groupBy("k", "vNum", "vStr")
      .agg(count(lit(1)) as "cnt")
    val w = Window
      .partitionBy("k")
      .orderBy(col("cnt").desc, col("vNum").asc_nulls_last, col("vStr").asc_nulls_last)
    counts
      .withColumn("rank", row_number().over(w))
      .filter(col("rank") === 1)
      .select("k", "vNum", "vStr")
  }
}
